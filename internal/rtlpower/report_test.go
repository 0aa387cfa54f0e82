package rtlpower_test

import (
	"math"
	"strings"
	"testing"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
)

func TestBreakdown(t *testing.T) {
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{{
			Name: "hot", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "big", Cat: hwlib.Shifter, Width: 64},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal << 1 },
		}},
	}
	src := `
    movi a2, 300
    movi a3, 12345
loop:
    hot a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    ret
`
	proc, trace, _ := runTrace(t, src, ext)
	e, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}

	rows, err := rep.Breakdown(proc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(proc.Blocks) {
		t.Fatalf("breakdown rows = %d, want %d", len(rows), len(proc.Blocks))
	}
	// Sorted descending, percentages sum to ~100.
	var pct, tot float64
	for i, r := range rows {
		if i > 0 && r.PJ > rows[i-1].PJ {
			t.Fatal("breakdown not sorted")
		}
		pct += r.Percent
		tot += r.PJ
	}
	if math.Abs(pct-100) > 0.01 {
		t.Fatalf("percentages sum to %g", pct)
	}
	if math.Abs(tot-rep.TotalPJ) > 1e-6*rep.TotalPJ {
		t.Fatal("breakdown energies do not sum to total")
	}

	base, custom, err := rep.BaseCustomSplit(proc)
	if err != nil {
		t.Fatal(err)
	}
	if custom <= 0 || base <= 0 {
		t.Fatalf("split base=%g custom=%g", base, custom)
	}
	if math.Abs(base+custom-rep.TotalPJ) > 1e-6*rep.TotalPJ {
		t.Fatal("split does not sum to total")
	}

	text := rtlpower.FormatBreakdown(rows, 187, rep.Cycles)
	for _, want := range []string{"tie.big", "clock", "mW at 187 MHz"} {
		if !strings.Contains(text, want) {
			t.Fatalf("breakdown text missing %q:\n%s", want, text)
		}
	}
}

func TestBreakdownMismatchedReport(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := rtlpower.Report{PerBlockPJ: []float64{1, 2}}
	if _, err := bad.Breakdown(proc); err == nil {
		t.Fatal("mismatched breakdown accepted")
	}
	if _, _, err := bad.BaseCustomSplit(proc); err == nil {
		t.Fatal("mismatched split accepted")
	}
}

// TestProfileSumsToTotal derives the power profile the way the product
// does, from a ProfileAccumulator hooked into the stream's OnEntry: its
// windows must sum to the report of the same pass.
func TestProfileSumsToTotal(t *testing.T) {
	proc, trace, _ := runTrace(t, loopSrc, nil)
	e, _ := rtlpower.New(proc, rtlpower.FastTechnology())
	acc := rtlpower.NewProfileAccumulator(100)
	st := e.Stream()
	st.OnEntry = acc.OnEntry
	if err := st.Consume(trace); err != nil {
		t.Fatal(err)
	}
	total, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	points := acc.Points()
	if len(points) < 3 {
		t.Fatalf("profile has %d windows", len(points))
	}
	var sumPJ float64
	var sumCycles uint64
	var lastStart uint64
	for i, p := range points {
		sumPJ += p.EnergyPJ
		sumCycles += p.Cycles
		if i > 0 && p.StartCycle <= lastStart {
			t.Fatal("profile windows not monotone")
		}
		lastStart = p.StartCycle
		if p.EnergyPJ <= 0 {
			t.Fatal("empty profile window")
		}
	}
	if math.Abs(sumPJ-total.TotalPJ) > 1e-9*total.TotalPJ {
		t.Fatalf("profile sums to %g, total is %g", sumPJ, total.TotalPJ)
	}
	if sumCycles != total.Cycles {
		t.Fatalf("profile cycles %d, total %d", sumCycles, total.Cycles)
	}
	if points[0].PowerMW(187) <= 0 {
		t.Fatal("zero window power")
	}
	text := rtlpower.FormatProfile(points, 187)
	if !strings.Contains(text, "mW") {
		t.Fatal("profile text malformed")
	}
}

// TestProfileErrors: a profiled stream that was fed nothing fails at
// Finish and holds no window.
func TestProfileErrors(t *testing.T) {
	proc, _, _ := runTrace(t, "ret\n", nil)
	e, _ := rtlpower.New(proc, rtlpower.FastTechnology())
	acc := rtlpower.NewProfileAccumulator(10)
	st := e.Stream()
	st.OnEntry = acc.OnEntry
	if _, err := st.Finish(); err == nil {
		t.Fatal("empty trace accepted")
	}
	if points := acc.Points(); len(points) != 0 {
		t.Fatalf("empty trace produced %d windows", len(points))
	}
}
