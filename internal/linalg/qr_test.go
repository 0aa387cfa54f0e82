package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	// For a square invertible system, the QR least-squares solution must
	// solve it exactly.
	a, _ := FromRows([][]float64{
		{2, 1, 0},
		{1, 3, 1},
		{0, 1, 4},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy-free points: exact recovery.
	xs := []float64{0, 1, 2, 3, 4, 5}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c[0], 2, 1e-12) || !almostEqual(c[1], 1, 1e-12) {
		t.Fatalf("fit = %v, want [2 1]", c)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// With inconsistent data, the residual must be orthogonal to the
	// column space (normal equations): Aᵀ(b - Ax) = 0.
	a, _ := FromRows([][]float64{
		{1, 0},
		{1, 1},
		{1, 2},
		{1, 3},
	})
	b := []float64{1, 0, 2, 1}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(x)
	resid := make([]float64, len(b))
	for i := range b {
		resid[i] = b[i] - ax[i]
	}
	atr, _ := a.T().MulVec(resid)
	for i, v := range atr {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("normal equation residual %d = %g", i, v)
		}
	}
}

func TestQRRequiresTall(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("wide matrix accepted")
	}
}

func TestRankDeficientDetected(t *testing.T) {
	// Duplicate column -> rank deficient.
	a, _ := FromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient system solved without error")
	}
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := f.ConditionEstimate(); c < 1e12 {
		t.Fatalf("condition estimate = %g, want huge (rank deficient)", c)
	}
}

func TestSolveRhsLength(t *testing.T) {
	a := Identity(3)
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestSolveRidge(t *testing.T) {
	a := Identity(2)
	b := []float64{2, 4}
	// Ridge with λ shrinks the identity solution by 1/(1+λ).
	x, err := SolveRidge(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 2, 1e-10) {
		t.Fatalf("ridge solution = %v, want [1 2]", x)
	}
	if _, err := SolveRidge(a, b, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
	x0, err := SolveRidge(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x0[0], 2, 1e-12) {
		t.Fatalf("lambda=0 must match plain least squares, got %v", x0)
	}
}

func TestRidgeStabilizesNearCollinear(t *testing.T) {
	// Two nearly identical columns: plain LS gives huge coefficients;
	// ridge keeps them bounded.
	a, _ := FromRows([][]float64{
		{1, 1 + 1e-9},
		{2, 2 - 1e-9},
		{3, 3 + 1e-9},
		{4, 4},
	})
	b := []float64{1, 2, 3, 4.1}
	x, err := SolveRidge(a, b, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]) > 10 || math.Abs(x[1]) > 10 {
		t.Fatalf("ridge coefficients exploded: %v", x)
	}
}

// Property: QR least squares reproduces a planted solution exactly for
// random well-conditioned tall systems.
func TestLeastSquaresRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seededRand(seed)
		a := randomMatrix(r, 10, 4)
		// Guard against accidental near-rank-deficiency.
		qr, err := FactorQR(a)
		if err != nil || qr.ConditionEstimate() > 1e6 {
			return true // skip pathological draws
		}
		want := []float64{r.float(), r.float(), r.float(), r.float()}
		b, _ := a.MulVec(want)
		got, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ||b - A·x_ls|| <= ||b - A·z|| for random alternative z.
func TestLeastSquaresOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := seededRand(seed)
		a := randomMatrix(r, 9, 3)
		qr, err := FactorQR(a)
		if err != nil || qr.ConditionEstimate() > 1e12 {
			return true
		}
		b := make([]float64, 9)
		for i := range b {
			b[i] = r.float()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true
		}
		ax, _ := a.MulVec(x)
		best := residNorm(b, ax)
		for trial := 0; trial < 5; trial++ {
			z := []float64{x[0] + r.float()/10, x[1] + r.float()/10, x[2] + r.float()/10}
			az, _ := a.MulVec(z)
			if residNorm(b, az) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func residNorm(b, ax []float64) float64 {
	var s float64
	for i := range b {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestGramInverseDiag(t *testing.T) {
	// Verify against an explicitly computed (XᵀX)⁻¹ on a small system.
	a, _ := FromRows([][]float64{
		{1, 2},
		{3, 1},
		{2, 2},
		{1, 0},
	})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := f.GramInverseDiag()
	if err != nil {
		t.Fatal(err)
	}
	// X'X = [[15, 9], [9, 9]]; inverse = 1/54 * [[9, -9], [-9, 15]].
	want := []float64{9.0 / 54, 15.0 / 54}
	for i := range want {
		if !almostEqual(diag[i], want[i], 1e-12) {
			t.Fatalf("diag[%d] = %g, want %g", i, diag[i], want[i])
		}
	}
}

func TestGramInverseDiagRankDeficient(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GramInverseDiag(); err == nil {
		t.Fatal("rank-deficient gram inverse accepted")
	}
}
