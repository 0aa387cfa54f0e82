package experiments

import (
	"fmt"
	"math"
	"strings"

	"xtenergy/internal/core"
	"xtenergy/internal/workloads"
)

// Seed-stability study: the reference estimator's toggle sampling is
// seeded; re-characterizing under different seeds perturbs every
// measured energy. A robust characterization flow must recover nearly
// the same coefficients regardless — large seed sensitivity would mean
// the regression is reading noise, not silicon.

// StabilityRow is one coefficient's spread across seeds.
type StabilityRow struct {
	Variable string
	MeanPJ   float64
	StdPJ    float64
	// CVPct is the coefficient of variation (std/|mean|) in percent;
	// 0 for coefficients whose mean is ~0.
	CVPct float64
}

// StabilityResult is the Monte-Carlo characterization study.
type StabilityResult struct {
	Seeds int
	Rows  []StabilityRow
	// MaxMajorCVPct is the largest CV among "major" coefficients (those
	// with |mean| >= 10 pJ); small coefficients are dominated by noise
	// and excluded from the headline number.
	MaxMajorCVPct float64
}

// Stability re-characterizes the processor under n different technology
// seeds and reports the coefficient spread.
func (s *Suite) Stability(n int) (StabilityResult, error) {
	if n < 2 {
		return StabilityResult{}, fmt.Errorf("experiments: stability needs at least 2 seeds")
	}
	suite := workloads.CharacterizationSuite()
	coefs := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		tech := s.Tech
		tech.Seed = s.Tech.Seed + uint32(i)*0x9E3779B9
		cr, err := core.Characterize(s.context(), s.Config, tech, suite, core.Options{Regress: s.Opts.Regress})
		if err != nil {
			return StabilityResult{}, fmt.Errorf("experiments: seed %d: %w", i, err)
		}
		coefs = append(coefs, cr.Model.Coef[:])
	}

	res := StabilityResult{Seeds: n}
	for j := 0; j < core.NumVars; j++ {
		var mean float64
		for _, c := range coefs {
			mean += c[j]
		}
		mean /= float64(n)
		var sq float64
		for _, c := range coefs {
			d := c[j] - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(n-1))
		row := StabilityRow{Variable: core.VarName(j), MeanPJ: mean, StdPJ: std}
		if math.Abs(mean) > 1e-9 {
			row.CVPct = 100 * std / math.Abs(mean)
		}
		res.Rows = append(res.Rows, row)
		if math.Abs(mean) >= 10 && row.CVPct > res.MaxMajorCVPct {
			res.MaxMajorCVPct = row.CVPct
		}
	}
	return res, nil
}

// FormatStability renders the seed-stability study.
func FormatStability(r StabilityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SEED STABILITY: coefficients across %d characterization seeds\n", r.Seeds)
	fmt.Fprintf(&b, "%-20s %12s %10s %8s\n", "coefficient", "mean (pJ)", "std (pJ)", "CV")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %12.1f %10.2f %7.2f%%\n", row.Variable, row.MeanPJ, row.StdPJ, row.CVPct)
	}
	fmt.Fprintf(&b, "max CV among major coefficients: %.2f%%\n", r.MaxMajorCVPct)
	return b.String()
}
