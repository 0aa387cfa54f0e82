package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xtenergy/internal/linalg"
)

func design(rows [][]float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestExactFit(t *testing.T) {
	x := design([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
		{2, 1},
	})
	want := []float64{3, 5}
	y, _ := x.MulVec(want)
	fit, err := FitLinear(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(fit.Coef[i]-want[i]) > 1e-10 {
			t.Fatalf("coef = %v, want %v", fit.Coef, want)
		}
	}
	if fit.RMSRel > 1e-12 || fit.MaxAbsRel > 1e-12 {
		t.Fatalf("exact fit has residual: rms=%g max=%g", fit.RMSRel, fit.MaxAbsRel)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %g, want 1", fit.R2)
	}
}

func TestNoisyFitStatistics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 50
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := r.Float64() * 10
		x.Set(i, 0, a)
		x.Set(i, 1, 1)
		y[i] = 4*a + 20 + r.NormFloat64() // small noise
	}
	fit, err := FitLinear(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coef[0]-4) > 0.3 || math.Abs(fit.Coef[1]-20) > 2 {
		t.Fatalf("coef = %v, want ~[4 20]", fit.Coef)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("R2 = %g", fit.R2)
	}
	if len(fit.Residuals) != n || len(fit.RelErr) != n || len(fit.Fitted) != n {
		t.Fatal("diagnostic lengths wrong")
	}
	if fit.MeanAbsRel <= 0 || fit.MaxAbsRel < fit.MeanAbsRel {
		t.Fatalf("error stats inconsistent: mean=%g max=%g", fit.MeanAbsRel, fit.MaxAbsRel)
	}
}

func TestUnderdetermined(t *testing.T) {
	x := design([][]float64{{1, 2, 3}})
	_, err := FitLinear(x, []float64{1}, Options{})
	if !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("err = %v, want ErrUnderdetermined", err)
	}
}

func TestDimensionMismatch(t *testing.T) {
	x := design([][]float64{{1}, {2}})
	if _, err := FitLinear(x, []float64{1, 2, 3}, Options{}); err == nil {
		t.Fatal("mismatched y accepted")
	}
}

func TestNonNegativeClampsNegatives(t *testing.T) {
	// Construct data where plain LS yields a negative coefficient:
	// y depends only on col0, col1 is noise-correlated negatively.
	x := design([][]float64{
		{1, 1},
		{2, 1.9},
		{3, 3.2},
		{4, 3.8},
		{5, 5.3},
	})
	y := []float64{1, 2, 3, 4, 5}
	plain, err := FitLinear(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := FitLinear(x, y, Options{NonNegative: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range nn.Coef {
		if c < 0 {
			t.Fatalf("nonnegative fit produced coef[%d] = %g", i, c)
		}
	}
	_ = plain
}

func TestNonNegativeAllPositiveUnchanged(t *testing.T) {
	x := design([][]float64{
		{1, 0},
		{0, 1},
		{1, 2},
	})
	y, _ := x.MulVec([]float64{2, 3})
	plain, _ := FitLinear(x, y, Options{})
	nn, _ := FitLinear(x, y, Options{NonNegative: true})
	for i := range plain.Coef {
		if math.Abs(plain.Coef[i]-nn.Coef[i]) > 1e-10 {
			t.Fatalf("nonnegative fit changed a positive solution: %v vs %v", plain.Coef, nn.Coef)
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	x := design([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	y, _ := x.MulVec([]float64{10, 10})
	plain, _ := FitLinear(x, y, Options{})
	ridge, _ := FitLinear(x, y, Options{Ridge: 10})
	if !(ridge.Coef[0] < plain.Coef[0]) {
		t.Fatalf("ridge did not shrink: %v vs %v", ridge.Coef, plain.Coef)
	}
}

func TestZeroMeasurementRelErr(t *testing.T) {
	x := design([][]float64{{1}, {2}, {0}})
	y := []float64{1, 2, 0}
	fit, err := FitLinear(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.RelErr[2] != 0 {
		t.Fatal("zero measurement produced nonzero relative error")
	}
}

// Property: fitting a planted nonnegative model recovers it under both
// plain and nonnegative options.
func TestRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 12, 3
		x := linalg.NewMatrix(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				x.Set(i, j, r.Float64()*5)
			}
		}
		want := []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
		y, _ := x.MulVec(want)
		for _, opts := range []Options{{}, {NonNegative: true}} {
			fit, err := FitLinear(x, y, opts)
			if err != nil {
				return true // skip ill-conditioned draws
			}
			for j := range want {
				if math.Abs(fit.Coef[j]-want[j]) > 1e-6*(1+want[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStdErrKnownSystem(t *testing.T) {
	// y = 2x with additive residuals of known size on a simple design.
	x := design([][]float64{{1}, {2}, {3}, {4}})
	y := []float64{2.1, 3.9, 6.1, 7.9}
	fit, err := FitLinear(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.StdErr == nil || len(fit.StdErr) != 1 {
		t.Fatalf("stderr missing: %v", fit.StdErr)
	}
	// Hand computation: coef = sum(xy)/sum(x²) = 59.8/30;
	// SSR = sum((y - coef*x)²); s² = SSR/3; se = sqrt(s²/30).
	coef := 59.8 / 30
	var ssr float64
	for i, xv := range []float64{1, 2, 3, 4} {
		r := y[i] - coef*xv
		ssr += r * r
	}
	want := math.Sqrt(ssr / 3 / 30)
	if math.Abs(fit.StdErr[0]-want) > 1e-12 {
		t.Fatalf("stderr = %g, want %g", fit.StdErr[0], want)
	}
}

func TestStdErrAbsentWithoutDOF(t *testing.T) {
	// Square system: zero residual degrees of freedom -> no stderr.
	x := design([][]float64{{1, 0}, {0, 1}})
	fit, err := FitLinear(x, []float64{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fit.StdErr != nil {
		t.Fatal("stderr reported with zero degrees of freedom")
	}
	// Ridge variant: stderr undefined.
	x2 := design([][]float64{{1}, {2}, {3}})
	fit2, err := FitLinear(x2, []float64{1, 2, 3}, Options{Ridge: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit2.StdErr != nil {
		t.Fatal("stderr reported for ridge fit")
	}
}
