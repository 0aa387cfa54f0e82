package experiments

import (
	"fmt"
	"math"
	"strings"

	"xtenergy/internal/core"
	"xtenergy/internal/linalg"
	"xtenergy/internal/regress"
)

// Leave-one-out cross-validation of the characterization suite: for each
// test program, the model is refitted on the remaining programs and
// asked to predict the held-out one. This measures the generalization of
// the suite itself (the paper's Fig. 3 measures in-sample fit; LOOCV is
// the stricter out-of-sample view of the same data), and flags programs
// whose variables are only identified by themselves.

// CrossValidationPoint is one held-out prediction.
type CrossValidationPoint struct {
	Name string
	// ErrPct is the signed prediction error in percent; NaN if the
	// reduced suite could not identify the held-out program's variables
	// (the point is excluded from the aggregates and counted in
	// Unidentifiable).
	ErrPct float64
}

// CrossValidationResult aggregates the LOOCV sweep.
type CrossValidationResult struct {
	Points         []CrossValidationPoint
	MeanAbsPct     float64
	MaxAbsPct      float64
	RMSPct         float64
	Unidentifiable int
}

// CrossValidation runs leave-one-out over the cached characterization
// observations. No simulation is re-run — only the regression.
func (s *Suite) CrossValidation() (CrossValidationResult, error) {
	cr, err := s.Characterization()
	if err != nil {
		return CrossValidationResult{}, err
	}
	obs := cr.Observations
	n := len(obs)
	if n < 3 {
		return CrossValidationResult{}, fmt.Errorf("experiments: too few observations for LOOCV")
	}

	var res CrossValidationResult
	var sumAbs, sumSq float64
	counted := 0
	for hold := 0; hold < n; hold++ {
		coef, ok, err := fitWithout(obs, hold)
		if err != nil {
			return CrossValidationResult{}, err
		}
		p := CrossValidationPoint{Name: obs[hold].Name, ErrPct: math.NaN()}
		if ok {
			pred := linalg.Dot(coef, obs[hold].Vars[:])
			if obs[hold].MeasuredPJ != 0 {
				p.ErrPct = 100 * (pred - obs[hold].MeasuredPJ) / obs[hold].MeasuredPJ
			}
		}
		if math.IsNaN(p.ErrPct) {
			res.Unidentifiable++
		} else {
			a := math.Abs(p.ErrPct)
			sumAbs += a
			sumSq += float64(p.ErrPct * p.ErrPct)
			if a > res.MaxAbsPct {
				res.MaxAbsPct = a
			}
			counted++
		}
		res.Points = append(res.Points, p)
	}
	if counted > 0 {
		res.MeanAbsPct = sumAbs / float64(counted)
		res.RMSPct = math.Sqrt(sumSq / float64(counted))
	}
	return res, nil
}

// fitWithout refits the 21-variable model excluding observation hold.
// ok is false when the held-out program uses a variable the reduced
// suite cannot identify (a column that is zero everywhere else).
func fitWithout(obs []core.Observation, hold int) (coef []float64, ok bool, err error) {
	rows := make([][]float64, 0, len(obs)-1)
	y := make([]float64, 0, len(obs)-1)
	for i := range obs {
		if i == hold {
			continue
		}
		rows = append(rows, obs[i].Vars[:])
		y = append(y, obs[i].MeasuredPJ)
	}
	used := make([]int, 0, core.NumVars)
	for j := 0; j < core.NumVars; j++ {
		for _, r := range rows {
			if r[j] != 0 {
				used = append(used, j)
				break
			}
		}
	}
	// If the held-out program uses variables outside the reduced column
	// set, it cannot be predicted.
	for j := 0; j < core.NumVars; j++ {
		if obs[hold].Vars[j] != 0 && !contains(used, j) {
			return nil, false, nil
		}
	}
	x := linalg.NewMatrix(len(rows), len(used))
	for i, r := range rows {
		for jj, j := range used {
			x.Set(i, jj, r[j])
		}
	}
	fit, err := regress.FitLinear(x, y, regress.Options{})
	if err != nil {
		if err == linalg.ErrRankDeficient {
			return nil, false, nil
		}
		return nil, false, err
	}
	full := make([]float64, core.NumVars)
	for jj, j := range used {
		full[j] = fit.Coef[jj]
	}
	return full, true, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// FormatCrossValidation renders the LOOCV sweep.
func FormatCrossValidation(r CrossValidationResult) string {
	var b strings.Builder
	b.WriteString("LEAVE-ONE-OUT CROSS-VALIDATION of the characterization suite\n")
	for i, p := range r.Points {
		if math.IsNaN(p.ErrPct) {
			fmt.Fprintf(&b, "%2d %-24s (unidentifiable without itself)\n", i+1, p.Name)
			continue
		}
		n := int(math.Abs(p.ErrPct)*2 + 0.5)
		if n > 60 {
			n = 60
		}
		bar := strings.Repeat("#", n)
		fmt.Fprintf(&b, "%2d %-24s %+7.2f%% %s\n", i+1, p.Name, p.ErrPct, bar)
	}
	fmt.Fprintf(&b, "mean |err| = %.2f%%, max |err| = %.2f%%, RMS = %.2f%% (%d unidentifiable)\n",
		r.MeanAbsPct, r.MaxAbsPct, r.RMSPct, r.Unidentifiable)
	return b.String()
}
