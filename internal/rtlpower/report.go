package rtlpower

import (
	"fmt"
	"sort"
	"strings"

	"xtenergy/internal/procgen"
)

// BlockEnergy is one row of a per-block power breakdown.
type BlockEnergy struct {
	Name    string
	Kind    procgen.BlockKind
	PJ      float64
	Percent float64
}

// Breakdown returns the per-block energies sorted descending, with
// percentages of the total — the report a designer reads off an
// RTL-level power estimator.
func (r Report) Breakdown(proc *procgen.Processor) ([]BlockEnergy, error) {
	if len(r.PerBlockPJ) != len(proc.Blocks) {
		return nil, fmt.Errorf("rtlpower: report has %d blocks, processor has %d",
			len(r.PerBlockPJ), len(proc.Blocks))
	}
	out := make([]BlockEnergy, len(proc.Blocks))
	for i, b := range proc.Blocks {
		out[i] = BlockEnergy{Name: b.Name, Kind: b.Kind, PJ: r.PerBlockPJ[i]}
		if r.TotalPJ > 0 {
			out[i].Percent = 100 * r.PerBlockPJ[i] / r.TotalPJ
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].PJ > out[b].PJ })
	return out, nil
}

// BaseCustomSplit returns the energy consumed by the base core versus
// the custom (TIE) hardware — the first question asked of an extended
// processor's power profile.
func (r Report) BaseCustomSplit(proc *procgen.Processor) (basePJ, customPJ float64, err error) {
	if len(r.PerBlockPJ) != len(proc.Blocks) {
		return 0, 0, fmt.Errorf("rtlpower: report has %d blocks, processor has %d",
			len(r.PerBlockPJ), len(proc.Blocks))
	}
	for i, b := range proc.Blocks {
		if b.Kind == procgen.BlockCustom {
			customPJ += r.PerBlockPJ[i]
		} else {
			basePJ += r.PerBlockPJ[i]
		}
	}
	return basePJ, customPJ, nil
}

// FormatBreakdown renders a breakdown as a text table with bars.
func FormatBreakdown(rows []BlockEnergy, clockMHz float64, cycles uint64) string {
	var b strings.Builder
	b.WriteString("per-block energy breakdown\n")
	fmt.Fprintf(&b, "%-18s %14s %8s  %s\n", "block", "energy (nJ)", "share", "")
	for _, r := range rows {
		bar := strings.Repeat("#", int(float64(r.Percent/2)+0.5))
		fmt.Fprintf(&b, "%-18s %14.2f %7.1f%%  %s\n", r.Name, r.PJ*1e-3, r.Percent, bar)
	}
	if cycles > 0 && clockMHz > 0 {
		var tot float64
		for _, r := range rows {
			tot += r.PJ
		}
		fmt.Fprintf(&b, "total %.3f uJ over %d cycles = %.1f mW at %.0f MHz\n",
			tot*1e-6, cycles, tot/float64(cycles)*clockMHz*1e6*1e-9, clockMHz)
	}
	return b.String()
}
