package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"xtenergy/internal/chaos"
	"xtenergy/internal/core"
	"xtenergy/internal/workloads"
)

// Sabotage-tolerance study: the characterization flow claims to degrade
// gracefully when reference measurements fail. This experiment proves
// it quantitatively — 20% of the test suite is sabotaged through the
// internal/chaos harness (memory faults, NaN energies, a stalled
// stream, dropped trace batches, a panicking worker, a flaky oracle)
// and the partial fit's major coefficients are compared against the
// clean fit's.

// SabotagePlan is the study's standard 8-of-40 sabotage (20% of the
// characterization suite). The victims are chosen for redundancy, not
// at random: each sabotaged program's columns stay identified by the
// banded cover design's surviving programs. Sole-identifier programs
// (tp09_branch_untaken, tp14_uncached, ...) must never be sabotaged —
// dropping one of those moves its coefficient by 50-200% and no fitter
// can recover information that was measured exactly once. One extra
// workload (tp05) is made flaky-but-recoverable: it must survive via
// retry, not be dropped.
func SabotagePlan() chaos.Plan {
	return chaos.Plan{
		"tp15_cover_mult":      {Mode: chaos.MemFault, PC: -1},
		"tp25_hybrid_mult":     {Mode: chaos.NaNEnergy},
		"tp24_cover_table":     {Mode: chaos.PanicWorker},
		"tp34_hybrid_table":    {Mode: chaos.StallStream},
		"tp31_hybrid_tiemac":   {Mode: chaos.MemFault, PC: -1},
		"tp37_memheavy_custom": {Mode: chaos.DropBatches},
		"tp40_mixed_custom":    {Mode: chaos.NaNEnergy},
		// Exhausts the retry budget (Retries=1 → 2 attempts) before
		// recovering: it must be dropped with attempts=2.
		"tp02_alu_blend": {Mode: chaos.Flaky, FailFirst: 3},
		// Recovers on its second attempt — exercises the retry path
		// without exceeding the 20% sabotage budget.
		"tp05_load_stream": {Mode: chaos.Flaky, FailFirst: 1},
	}
}

// SabotageRow is one major coefficient's clean-vs-partial comparison.
type SabotageRow struct {
	Variable  string
	CleanPJ   float64
	PartialPJ float64
	DriftPct  float64 // 100*|partial-clean|/|clean|
}

// SabotageResult is the sabotage-tolerance study.
type SabotageResult struct {
	Total     int // suite size
	Sabotaged int // workloads expected to fail
	Failures  []core.Failure
	Rows      []SabotageRow // major coefficients only (|clean| >= 10 pJ)
	// MaxMajorDriftPct is the headline number: the largest relative
	// coefficient change among major coefficients. The acceptance bar
	// is 5%.
	MaxMajorDriftPct float64
}

// Sabotage characterizes the suite twice — clean, then with the
// standard sabotage plan under the Partial policy (per-workload
// timeout, one retry) — and reports the failure roster and the major
// coefficients' drift.
func (s *Suite) Sabotage() (SabotageResult, error) {
	cleanCR, err := s.Characterization()
	if err != nil {
		return SabotageResult{}, err
	}

	plan := SabotagePlan()
	progs := workloads.CharacterizationSuite()
	opts := core.Options{
		Regress: s.Opts.Regress,
		Partial: true,
		Timeout: 5 * time.Second,
		Retries: 1,
		Backoff: s.Opts.Backoff,
		Measure: plan.Measure(),
	}
	partialCR, err := core.Characterize(s.context(), s.Config, s.Tech, progs, opts)
	if err != nil {
		return SabotageResult{}, fmt.Errorf("experiments: sabotaged characterization: %w", err)
	}

	res := SabotageResult{
		Total:     len(progs),
		Sabotaged: len(plan) - 1, // tp05 recovers via retry
		Failures:  partialCR.Failures,
	}
	for i := 0; i < core.NumVars; i++ {
		clean := cleanCR.Model.Coef[i]
		if math.Abs(clean) < 10 {
			continue
		}
		part := partialCR.Model.Coef[i]
		drift := 100 * math.Abs(part-clean) / math.Abs(clean)
		res.Rows = append(res.Rows, SabotageRow{
			Variable: core.VarName(i), CleanPJ: clean, PartialPJ: part, DriftPct: drift,
		})
		if drift > res.MaxMajorDriftPct {
			res.MaxMajorDriftPct = drift
		}
	}
	return res, nil
}

// FormatSabotage renders the sabotage-tolerance study.
func FormatSabotage(r SabotageResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SABOTAGE TOLERANCE: %d of %d workloads sabotaged, partial fit vs clean fit\n",
		r.Sabotaged, r.Total)
	fmt.Fprintf(&b, "dropped workloads (%d):\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %-22s %-16s attempts=%d\n", f.Name, f.Kind(), f.Attempts)
	}
	fmt.Fprintf(&b, "major coefficients (|clean| >= 10 pJ):\n")
	fmt.Fprintf(&b, "  %-20s %12s %12s %8s\n", "coefficient", "clean (pJ)", "partial (pJ)", "drift")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %12.1f %12.1f %7.2f%%\n", row.Variable, row.CleanPJ, row.PartialPJ, row.DriftPct)
	}
	fmt.Fprintf(&b, "max major-coefficient drift: %.2f%% (bar: 5%%)\n", r.MaxMajorDriftPct)
	return b.String()
}
