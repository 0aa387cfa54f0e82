package linalg

import (
	"errors"
	"fmt"
	"math"
)

// QR holds a Householder QR factorization of an m x n matrix with m >= n:
// A = Q * R, where Q is m x m orthogonal and R is m x n upper triangular.
// The factors are stored compactly: the upper triangle of qr holds R and
// the lower triangle (plus tau) holds the Householder reflectors.
type QR struct {
	qr   *Matrix   // packed factors
	tau  []float64 // scalar factors of the reflectors
	perm []int     // column permutation (identity when no pivoting)
}

// ErrRankDeficient reports that the coefficient matrix does not have full
// column rank at working precision.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// FactorQR computes the Householder QR factorization of a.
// a must have at least as many rows as columns.
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k.
		col := make([]float64, m-k)
		for i := k; i < m; i++ {
			col[i-k] = qr.At(i, k)
		}
		alpha := Norm2(col)
		if alpha == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) > 0 {
			alpha = -alpha
		}
		// v = x - alpha*e1, normalized so v[0] = 1.
		v0 := qr.At(k, k) - alpha
		tau[k] = -v0 / alpha
		qr.Set(k, k, alpha)
		for i := k + 1; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/v0)
		}
		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			s := qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += float64(qr.At(i, k) * qr.At(i, j))
			}
			s *= tau[k]
			qr.Set(k, j, qr.At(k, j)-float64(s))
			for i := k + 1; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)-float64(s*qr.At(i, k)))
			}
		}
	}
	return &QR{qr: qr, tau: tau, perm: perm}, nil
}

// applyQT overwrites b (length m) with Qᵀ·b.
func (f *QR) applyQT(b []float64) {
	m, n := f.qr.Rows(), f.qr.Cols()
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < m; i++ {
			s += float64(f.qr.At(i, k) * b[i])
		}
		s *= f.tau[k]
		b[k] -= float64(s)
		for i := k + 1; i < m; i++ {
			b[i] -= float64(s * f.qr.At(i, k))
		}
	}
}

// Solve returns the least-squares solution x minimizing ||A·x - b||₂.
// b must have length equal to the number of rows of A.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), m)
	}
	work := make([]float64, m)
	copy(work, b)
	f.applyQT(work)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		rii := f.qr.At(i, i)
		if math.Abs(rii) < rankTol(f.qr) {
			return nil, ErrRankDeficient
		}
		s := work[i]
		for j := i + 1; j < n; j++ {
			s -= float64(f.qr.At(i, j) * x[j])
		}
		x[i] = s / rii
	}
	return x, nil
}

// ConditionEstimate returns |r_max|/|r_min| over the diagonal of R, a cheap
// lower bound on the 2-norm condition number of A. It returns +Inf for a
// numerically rank-deficient factorization.
func (f *QR) ConditionEstimate() float64 {
	n := f.qr.Cols()
	mx, mn := 0.0, math.Inf(1)
	for i := 0; i < n; i++ {
		a := math.Abs(f.qr.At(i, i))
		if a > mx {
			mx = a
		}
		if a < mn {
			mn = a
		}
	}
	if mn == 0 {
		return math.Inf(1)
	}
	return mx / mn
}

func rankTol(qr *Matrix) float64 {
	// Standard heuristic: eps * max(m,n) * max|R_ii|.
	n := qr.Cols()
	var mx float64
	for i := 0; i < n; i++ {
		if a := math.Abs(qr.At(i, i)); a > mx {
			mx = a
		}
	}
	dim := qr.Rows()
	if n > dim {
		dim = n
	}
	return 2.220446049250313e-16 * float64(dim) * mx
}

// LeastSquares solves min ||A·x - b||₂ by Householder QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveRidge returns the Tikhonov-regularized solution
// x = (AᵀA + λI)⁻¹ Aᵀ b, computed by QR on the augmented system
// [A; sqrt(λ)·I]. λ must be non-negative.
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge parameter %g", lambda)
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	m, n := a.Rows(), a.Cols()
	aug := NewMatrix(m+n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, a.At(i, j))
		}
	}
	sq := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sq)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return LeastSquares(aug, rhs)
}

// GramInverseDiag returns the diagonal of (AᵀA)⁻¹ for the factored
// matrix, computed as the squared row norms of R⁻¹. This is the
// ingredient of regression coefficient standard errors. It fails for
// rank-deficient factorizations.
func (f *QR) GramInverseDiag() ([]float64, error) {
	n := f.qr.Cols()
	tol := rankTol(f.qr)
	// Invert the upper-triangular R by back substitution, one unit
	// vector at a time; rInv is upper triangular as well.
	rInv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := j; i >= 0; i-- {
			rii := f.qr.At(i, i)
			if math.Abs(rii) < tol {
				return nil, ErrRankDeficient
			}
			var s float64
			if i == j {
				s = 1
			}
			for k := i + 1; k <= j; k++ {
				s -= float64(f.qr.At(i, k) * rInv.At(k, j))
			}
			rInv.Set(i, j, s/rii)
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := i; j < n; j++ {
			v := rInv.At(i, j)
			s += float64(v * v)
		}
		out[i] = s
	}
	return out, nil
}
