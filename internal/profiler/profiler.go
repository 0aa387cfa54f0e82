// Package profiler attributes a program's macro-model energy to
// individual instructions and labeled code regions — a software energy
// profiler in the tradition of the instruction-level power profilers the
// paper builds on, but driven by the characterized macro-model instead
// of measurements.
//
// Attribution is exact by construction: each retired instruction's
// contribution to the 21 macro-model variables is priced with the fitted
// coefficients, so the per-instruction energies sum to precisely the
// macro-model's whole-program estimate.
package profiler

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"xtenergy/internal/core"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
)

// Line is the profile of one static instruction.
type Line struct {
	// PC is the instruction's word index.
	PC int
	// Instr is the static instruction.
	Instr isa.Instr
	// Count is how many times it retired.
	Count uint64
	// Cycles is the total cycles charged to it (including stalls).
	Cycles uint64
	// EnergyPJ is the macro-model energy attributed to it.
	EnergyPJ float64
}

// Region aggregates the lines between two consecutive code labels.
type Region struct {
	// Label names the region (the label opening it; "(entry)" before the
	// first label).
	Label string
	// StartPC and EndPC bound the region: [StartPC, EndPC).
	StartPC, EndPC int
	Cycles         uint64
	EnergyPJ       float64
	// Percent is the region's share of total energy.
	Percent float64
}

// Report is a program's energy profile.
type Report struct {
	// Lines holds every executed static instruction, by PC.
	Lines []Line
	// Regions holds the label-level aggregation, sorted by energy
	// descending.
	Regions []Region
	// TotalPJ is the whole-program macro-model energy; it equals the sum
	// of the line energies exactly.
	TotalPJ float64
	// Cycles is the total cycle count.
	Cycles uint64
}

// Profile runs prog on proc's ISS and attributes the model's energy to
// each instruction as the trace streams past, so its memory follows the
// program's size, not its run length. It also returns the run's result.
func Profile(ctx context.Context, model *core.MacroModel, proc *procgen.Processor, prog *iss.Program) (*Report, *iss.Result, error) {
	if model == nil {
		return nil, nil, fmt.Errorf("profiler: nil model")
	}

	icPen := proc.Config.ICache.MissPenalty
	dcPen := proc.Config.DCache.MissPenalty
	pl := prog.Plan(proc.TIE)

	perPC := make([]Line, len(prog.Code))
	rep := &Report{}
	sink := func(batch []iss.TraceEntry) error {
		for i := range batch {
			te := &batch[i]
			pj := entryEnergy(model, pl, &pl.Recs[te.PC], te, icPen, dcPen)
			ln := &perPC[te.PC]
			ln.Count++
			ln.Cycles += uint64(te.Cycles)
			ln.EnergyPJ += pj
			rep.TotalPJ += pj
			rep.Cycles += uint64(te.Cycles)
		}
		return nil
	}
	res, err := iss.New(proc).RunContext(ctx, prog, iss.Options{TraceSink: sink})
	if err != nil {
		return nil, nil, err
	}

	for pc, ln := range perPC {
		if ln.Count > 0 {
			ln.PC, ln.Instr = pc, pl.Recs[pc].Instr
			rep.Lines = append(rep.Lines, ln)
		}
	}
	rep.Regions = buildRegions(prog, rep.Lines, rep.TotalPJ)
	return rep, res, nil
}

// entryEnergy prices one retired instruction: its contribution to each
// macro-model variable, dotted with the fitted coefficients. rec is the
// instruction's plan record; the ISS has already resolved a custom
// instruction's extension entry, or it would have faulted.
func entryEnergy(model *core.MacroModel, pl *plan.Plan, rec *plan.Rec, te *iss.TraceEntry, icPen, dcPen int) float64 {
	var v core.Vars
	in := te.Instr

	// Event variables.
	if te.ICMiss {
		v[core.VICacheMiss] = 1
	}
	if te.DCMiss {
		v[core.VDCacheMiss] = 1
	}
	if te.Uncached {
		v[core.VUncachedFetch] = 1
	}
	if te.Interlock {
		v[core.VInterlock] = 1
	}

	if in.IsCustom() {
		ci := rec.CI
		if rec.RegfileActive {
			v[core.VCustomSideEffect] = float64(ci.Latency)
		}
		for k := range rec.CustomWeights {
			v[core.VCustomBase+k] = rec.CustomWeights[k] * float64(ci.Latency)
		}
		return model.EstimatePJ(v)
	}

	// Base instruction: class cycles are the entry's cycles minus its
	// stalls (cache fill, uncached fetch, interlock).
	classCycles := int(te.Cycles)
	if te.ICMiss {
		classCycles -= icPen
	}
	if te.DCMiss {
		classCycles -= dcPen
	}
	if te.Uncached {
		classCycles -= iss.UncachedFetchPenalty
	}
	if te.Interlock {
		classCycles--
	}
	if classCycles < 0 {
		classCycles = 0
	}
	switch rec.Def.Class {
	case isa.ClassArith:
		v[core.VArith] = float64(classCycles)
		// Base-to-custom side effect: bus-tapped components (hoisted to
		// one plan-level precomputation instead of a per-entry query).
		for k := range pl.BusTap {
			v[core.VCustomBase+k] += pl.BusTap[k]
		}
	case isa.ClassLoad:
		v[core.VLoad] = float64(classCycles)
	case isa.ClassStore:
		v[core.VStore] = float64(classCycles)
	case isa.ClassJump:
		v[core.VJump] = float64(classCycles)
	case isa.ClassBranch:
		if te.Taken {
			v[core.VBranchTaken] = float64(classCycles)
		} else {
			v[core.VBranchUntaken] = float64(classCycles)
		}
	}
	return model.EstimatePJ(v)
}

// buildRegions aggregates lines into [label, next-label) regions.
func buildRegions(prog *iss.Program, lines []Line, totalPJ float64) []Region {
	type bound struct {
		pc    int
		label string
	}
	var bounds []bound
	for label, pc := range prog.Labels {
		bounds = append(bounds, bound{pc, label})
	}
	sort.Slice(bounds, func(a, b int) bool {
		if bounds[a].pc != bounds[b].pc {
			return bounds[a].pc < bounds[b].pc
		}
		return bounds[a].label < bounds[b].label
	})
	// Collapse labels at the same PC into one region name.
	var regions []Region
	if len(bounds) == 0 || bounds[0].pc > 0 {
		regions = append(regions, Region{Label: "(entry)", StartPC: 0})
	}
	for i := 0; i < len(bounds); i++ {
		if len(regions) > 0 && regions[len(regions)-1].StartPC == bounds[i].pc {
			regions[len(regions)-1].Label += "/" + bounds[i].label
			continue
		}
		regions = append(regions, Region{Label: bounds[i].label, StartPC: bounds[i].pc})
	}
	for i := range regions {
		if i+1 < len(regions) {
			regions[i].EndPC = regions[i+1].StartPC
		} else {
			regions[i].EndPC = len(prog.Code)
		}
	}

	for _, ln := range lines {
		for i := range regions {
			if ln.PC >= regions[i].StartPC && ln.PC < regions[i].EndPC {
				regions[i].Cycles += ln.Cycles
				regions[i].EnergyPJ += ln.EnergyPJ
				break
			}
		}
	}
	var out []Region
	for _, r := range regions {
		if r.Cycles == 0 {
			continue
		}
		if totalPJ > 0 {
			r.Percent = 100 * r.EnergyPJ / totalPJ
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].EnergyPJ > out[b].EnergyPJ })
	return out
}

// FormatRegions renders the region-level profile.
func (r *Report) FormatRegions() string {
	var b strings.Builder
	b.WriteString("energy by code region (macro-model attribution)\n")
	fmt.Fprintf(&b, "%-28s %10s %12s %8s\n", "region", "cycles", "energy (nJ)", "share")
	for _, reg := range r.Regions {
		bar := strings.Repeat("#", int(float64(reg.Percent/2)+0.5))
		fmt.Fprintf(&b, "%-28s %10d %12.2f %7.1f%% %s\n",
			reg.Label, reg.Cycles, reg.EnergyPJ*1e-3, reg.Percent, bar)
	}
	fmt.Fprintf(&b, "total %.3f uJ over %d cycles\n", r.TotalPJ*1e-6, r.Cycles)
	return b.String()
}

// FormatHotLines renders the top-n instructions by energy.
func (r *Report) FormatHotLines(n int) string {
	lines := make([]Line, len(r.Lines))
	copy(lines, r.Lines)
	sort.Slice(lines, func(a, b int) bool { return lines[a].EnergyPJ > lines[b].EnergyPJ })
	if n > len(lines) {
		n = len(lines)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hottest %d instructions\n", n)
	fmt.Fprintf(&b, "%6s  %-28s %10s %10s %12s\n", "pc", "instruction", "count", "cycles", "energy (nJ)")
	for _, ln := range lines[:n] {
		fmt.Fprintf(&b, "%6d  %-28s %10d %10d %12.2f\n",
			ln.PC, ln.Instr.String(), ln.Count, ln.Cycles, ln.EnergyPJ*1e-3)
	}
	return b.String()
}
