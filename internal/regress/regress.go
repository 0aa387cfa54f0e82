// Package regress implements the regression macro-model fitting of the
// paper's characterization flow (Fig. 2, step 8): given an N x K matrix
// of macro-model variable values (one row per test program) and the
// N-vector of measured energies, it solves E = X·C for the energy
// coefficient vector C by least squares (the pseudo-inverse method) and
// reports fit statistics.
//
// Variants used by the ablation studies — ridge regularization and a
// nonnegativity constraint on the coefficients — are available through
// Options.
package regress

import (
	"errors"
	"fmt"
	"math"

	"xtenergy/internal/linalg"
)

// Options selects the fitting variant.
type Options struct {
	// Ridge is the Tikhonov regularization strength λ (0 = plain least
	// squares, the paper's method).
	Ridge float64
	// NonNegative constrains coefficients to be >= 0 by iteratively
	// removing negative coefficients from the active set (a simplified
	// Lawson-Hanson NNLS). Energy coefficients are physically
	// nonnegative, so this is a natural ablation.
	NonNegative bool
}

// Fit is a fitted linear model plus its training diagnostics.
type Fit struct {
	// Coef is the coefficient vector C.
	Coef []float64
	// Fitted holds X·C per training observation.
	Fitted []float64
	// Residuals holds measured - fitted per observation.
	Residuals []float64
	// RelErr holds residual/measured per observation (0 when the
	// measurement is 0).
	RelErr []float64
	// RMSRel is the root-mean-square relative error over the training
	// set (the paper reports 3.8% for its 25 test programs).
	RMSRel float64
	// MaxAbsRel is the maximum |relative error| (paper: under 8.9%).
	MaxAbsRel float64
	// MeanAbsRel is the mean |relative error|.
	MeanAbsRel float64
	// R2 is the coefficient of determination.
	R2 float64
	// CondEstimate is a lower bound on the condition number of X.
	CondEstimate float64
	// StdErr holds the coefficient standard errors (sqrt of the
	// diagonal of s²(XᵀX)⁻¹); nil when the system has no residual
	// degrees of freedom or the ridge/nonnegative variants are used.
	StdErr []float64
}

// ErrUnderdetermined reports fewer observations than coefficients.
var ErrUnderdetermined = errors.New("regress: fewer observations than model variables")

// FitLinear fits E = X·C and returns the model with diagnostics.
func FitLinear(x *linalg.Matrix, y []float64, opts Options) (*Fit, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("regress: %d observations but %d measurements", x.Rows(), len(y))
	}
	if x.Rows() < x.Cols() {
		return nil, fmt.Errorf("%w: %d < %d", ErrUnderdetermined, x.Rows(), x.Cols())
	}

	coef, err := solve(x, y, opts)
	if err != nil {
		return nil, err
	}
	f := &Fit{Coef: coef}

	qr, err := linalg.FactorQR(x)
	if err != nil {
		return nil, err
	}
	f.CondEstimate = qr.ConditionEstimate()
	plainOLS := opts.Ridge == 0 && !opts.NonNegative

	fitted, err := x.MulVec(coef)
	if err != nil {
		return nil, err
	}
	f.Fitted = fitted
	f.Residuals = make([]float64, len(y))
	f.RelErr = make([]float64, len(y))

	var ssRes, ssTot, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var sumSqRel, sumAbsRel float64
	for i, v := range y {
		r := v - fitted[i]
		f.Residuals[i] = r
		ssRes += float64(r * r)
		d := v - mean
		ssTot += float64(d * d)
		if v != 0 {
			rel := r / v
			f.RelErr[i] = rel
			sumSqRel += float64(rel * rel)
			if a := math.Abs(rel); a > f.MaxAbsRel {
				f.MaxAbsRel = a
			}
			sumAbsRel += math.Abs(rel)
		}
	}
	n := float64(len(y))
	f.RMSRel = math.Sqrt(sumSqRel / n)
	f.MeanAbsRel = sumAbsRel / n
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		f.R2 = 1
	}

	// Coefficient standard errors (classical OLS only): s²·diag((XᵀX)⁻¹)
	// with s² = SSR/(n-k).
	if dof := len(y) - x.Cols(); plainOLS && dof > 0 {
		if diag, derr := qr.GramInverseDiag(); derr == nil {
			s2 := ssRes / float64(dof)
			f.StdErr = make([]float64, len(coef))
			for j := range f.StdErr {
				f.StdErr[j] = math.Sqrt(s2 * diag[j])
			}
		}
	}
	return f, nil
}

func solve(x *linalg.Matrix, y []float64, opts Options) ([]float64, error) {
	if !opts.NonNegative {
		return linalg.SolveRidge(x, y, opts.Ridge)
	}
	// Simplified NNLS: solve on the active column set; drop columns with
	// negative coefficients and re-solve until all remaining are
	// nonnegative. Dropped coefficients are reported as 0.
	k := x.Cols()
	active := make([]int, 0, k)
	for j := 0; j < k; j++ {
		active = append(active, j)
	}
	for iter := 0; iter <= k; iter++ {
		if len(active) == 0 {
			return make([]float64, k), nil
		}
		sub := linalg.NewMatrix(x.Rows(), len(active))
		for i := 0; i < x.Rows(); i++ {
			for jj, j := range active {
				sub.Set(i, jj, x.At(i, j))
			}
		}
		c, err := linalg.SolveRidge(sub, y, opts.Ridge)
		if err != nil {
			return nil, err
		}
		next := active[:0]
		out := make([]float64, k)
		anyNeg := false
		for jj, j := range active {
			if c[jj] < 0 {
				anyNeg = true
				continue
			}
			out[j] = c[jj]
			next = append(next, j)
		}
		if !anyNeg {
			return out, nil
		}
		active = next
	}
	return nil, errors.New("regress: nonnegative fit did not converge")
}
