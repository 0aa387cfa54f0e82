package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
)

// Estimate is a fast macro-model energy estimate for one application.
type Estimate struct {
	// Name is the application name.
	Name string
	// EnergyPJ is the macro-model estimate.
	EnergyPJ float64
	// Vars are the extracted macro-model variables.
	Vars Vars
	// Cycles is the application's simulated cycle count.
	Cycles uint64
}

// EnergyUJ returns the estimate in microjoules (Table II's unit).
func (e Estimate) EnergyUJ() float64 { return e.EnergyPJ * 1e-6 }

// EstimateWorkload runs the fast estimation path (paper Fig. 2, steps
// 9-11): instruction-set simulation for execution statistics, dynamic
// resource-usage analysis for custom-hardware activations, and the
// macro-model dot product. No RTL generation or simulation is involved —
// this is what makes the approach usable for exploring candidate custom
// instructions.
func (m *MacroModel) EstimateWorkload(cfg procgen.Config, w Workload) (Estimate, error) {
	if m.Fit == nil && m.Coef == (Vars{}) {
		return Estimate{}, fmt.Errorf("core: macro-model has no coefficients; run Characterize first")
	}
	_, res, vars, err := w.Simulate(cfg, false)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Name:     w.Name,
		EnergyPJ: m.EstimatePJ(vars),
		Vars:     vars,
		Cycles:   res.Stats.Cycles,
	}, nil
}

// Reference is the slow-path measurement used to validate estimates.
type Reference struct {
	Name     string
	EnergyPJ float64
	Cycles   uint64
	Report   rtlpower.Report
}

// EnergyUJ returns the reference energy in microjoules.
func (r Reference) EnergyUJ() float64 { return r.EnergyPJ * 1e-6 }

// ReferenceEnergy measures a workload's energy with the RTL-level
// reference estimator (the WattWatcher leg of Table II). The ISS
// streams into the estimator (rtlpower.EstimateProgram), so the
// measurement runs in O(1) memory regardless of workload length.
// Cancelling ctx aborts within one batch boundary with a typed
// cancelled fault.
func ReferenceEnergy(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w Workload) (Reference, error) {
	proc, prog, err := w.Build(cfg)
	if err != nil {
		return Reference{}, err
	}
	est, err := rtlpower.New(proc, tech)
	if err != nil {
		return Reference{}, err
	}
	rep, res, err := est.EstimateProgram(ctx, prog, iss.Options{})
	if err != nil {
		return Reference{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	return Reference{
		Name:     w.Name,
		EnergyPJ: rep.TotalPJ,
		Cycles:   res.Stats.Cycles,
		Report:   rep,
	}, nil
}

// Contribution is one macro-model term of an estimate.
type Contribution struct {
	// Variable is the macro-model variable name.
	Variable string
	// Value is the variable's extracted value.
	Value float64
	// CoefPJ is the fitted coefficient.
	CoefPJ float64
	// EnergyPJ is Value * CoefPJ.
	EnergyPJ float64
	// Percent is the share of the total estimate.
	Percent float64
}

// Breakdown decomposes an estimate into its 21 coefficient terms, sorted
// by energy descending (zero terms omitted). The terms sum to
// EstimatePJ(v) exactly.
func (m *MacroModel) Breakdown(v Vars) []Contribution {
	total := m.EstimatePJ(v)
	var out []Contribution
	for i := 0; i < NumVars; i++ {
		e := m.Coef[i] * v[i]
		if e == 0 {
			continue
		}
		c := Contribution{
			Variable: VarName(i),
			Value:    v[i],
			CoefPJ:   m.Coef[i],
			EnergyPJ: e,
		}
		if total != 0 {
			c.Percent = 100 * e / total
		}
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].EnergyPJ > out[b].EnergyPJ })
	return out
}

// FormatBreakdown renders an estimate decomposition.
func FormatBreakdown(rows []Contribution) string {
	var b strings.Builder
	b.WriteString("estimate breakdown by macro-model term\n")
	fmt.Fprintf(&b, "%-20s %14s %12s %12s %8s\n", "term", "variable", "coef (pJ)", "energy (nJ)", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14.0f %12.1f %12.2f %7.1f%%\n",
			r.Variable, r.Value, r.CoefPJ, r.EnergyPJ*1e-3, r.Percent)
	}
	return b.String()
}
