package rtlpower_test

import (
	"context"
	"math"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
)

func testTech() rtlpower.Technology {
	t := rtlpower.FastTechnology()
	return t
}

func runTrace(t *testing.T, src string, ext *tie.Extension) (*procgen.Processor, []iss.TraceEntry, *iss.Stats) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	trace, res := rtlpower.RecordTrace(t, proc, prog)
	return proc, trace, &res.Stats
}

const loopSrc = `
    movi a2, 200
    movi a3, 17
loop:
    add a4, a3, a2
    xor a3, a4, a3
    addi a2, a2, -1
    bnez a2, loop
    ret
`

func TestTechnologyValidate(t *testing.T) {
	if err := rtlpower.DefaultTechnology().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := rtlpower.DefaultTechnology()
	bad.Detail = 0
	if bad.Validate() == nil {
		t.Fatal("zero detail accepted")
	}
	bad = rtlpower.DefaultTechnology()
	bad.SwitchingWeight = 2
	if bad.Validate() == nil {
		t.Fatal("bad switching weight accepted")
	}
	bad = rtlpower.DefaultTechnology()
	bad.CustomIdleFrac = 0.9
	if bad.Validate() == nil {
		t.Fatal("bad idle fraction accepted")
	}
	bad = rtlpower.DefaultTechnology()
	bad.CustomNetsPerUnit = 0
	if bad.Validate() == nil {
		t.Fatal("zero nets accepted")
	}
	bad = rtlpower.DefaultTechnology()
	bad.Blocks[procgen.BlockALU].Nets = -1
	if bad.Validate() == nil {
		t.Fatal("negative nets accepted")
	}
}

func TestEstimateDeterministic(t *testing.T) {
	proc, trace, _ := runTrace(t, loopSrc, nil)
	e1, err := rtlpower.New(proc, testTech())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := rtlpower.New(proc, testTech())
	r2, err := e2.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalPJ != r2.TotalPJ {
		t.Fatalf("nondeterministic: %g vs %g", r1.TotalPJ, r2.TotalPJ)
	}
	if r1.TotalPJ <= 0 {
		t.Fatal("non-positive energy")
	}
	if r1.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	proc, _, _ := runTrace(t, "ret\n", nil)
	e, _ := rtlpower.New(proc, testTech())
	if _, err := e.EstimateTrace(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	proc, trace1, _ := runTrace(t, loopSrc, nil)
	e, _ := rtlpower.New(proc, testTech())
	r1, err := e.EstimateTrace(trace1)
	if err != nil {
		t.Fatal(err)
	}
	// Double the loop count: roughly double the energy.
	_, trace2, _ := runTrace(t, `
    movi a2, 400
    movi a3, 17
loop:
    add a4, a3, a2
    xor a3, a4, a3
    addi a2, a2, -1
    bnez a2, loop
    ret
`, nil)
	e2, _ := rtlpower.New(proc, testTech())
	r2, err := e2.EstimateTrace(trace2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.TotalPJ / r1.TotalPJ
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("energy ratio = %g, want ~2", ratio)
	}
}

func TestDetailInvariance(t *testing.T) {
	// Expected energy must be (approximately) independent of the net
	// resolution.
	proc, trace, _ := runTrace(t, loopSrc, nil)
	lo := rtlpower.DefaultTechnology()
	lo.Detail = 0.05
	hi := rtlpower.DefaultTechnology()
	hi.Detail = 0.5
	eLo, _ := rtlpower.New(proc, lo)
	eHi, _ := rtlpower.New(proc, hi)
	rLo, err := eLo.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	rHi, err := eHi.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(rLo.TotalPJ-rHi.TotalPJ) / rHi.TotalPJ
	if rel > 0.05 {
		t.Fatalf("detail changed energy by %.1f%%", rel*100)
	}
}

func TestPerBlockAttribution(t *testing.T) {
	proc, trace, _ := runTrace(t, loopSrc, nil)
	e, _ := rtlpower.New(proc, testTech())
	r, err := e.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerBlockPJ) != len(proc.Blocks) {
		t.Fatalf("per-block length %d, want %d", len(r.PerBlockPJ), len(proc.Blocks))
	}
	var sum float64
	byName := map[string]float64{}
	for i, v := range r.PerBlockPJ {
		if v < 0 {
			t.Fatalf("negative block energy %s", proc.Blocks[i].Name)
		}
		sum += v
		byName[proc.Blocks[i].Name] = v
	}
	if math.Abs(sum-r.TotalPJ) > 1e-6*r.TotalPJ {
		t.Fatal("per-block energies do not sum to total")
	}
	// An ALU-heavy loop: the ALU must consume more than the idle
	// multiplier.
	if byName["alu"] <= byName["mult32"] {
		t.Fatalf("alu %g <= idle mult %g", byName["alu"], byName["mult32"])
	}
	// The clock tree burns every cycle; it should be a top consumer.
	if byName["clock"] <= 0 {
		t.Fatal("clock tree consumed nothing")
	}
}

func TestCustomBlockEnergy(t *testing.T) {
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{{
			Name: "burn", Latency: 2, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "heavy", Cat: hwlib.Shifter, Width: 64},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal >> 1 },
		}},
	}
	src := `
    movi a2, 150
    movi a3, 999
loop:
    burn a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    ret
`
	proc, trace, _ := runTrace(t, src, ext)
	e, err := rtlpower.New(proc, testTech())
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	var custom float64
	for i, b := range proc.Blocks {
		if b.Name == "tie.heavy" {
			custom = r.PerBlockPJ[i]
		}
	}
	// 150 executions x 2 cycles x ~377*2 pJ ~ 226 nJ (+/- activity).
	want := 150.0 * 2 * 377 * 2
	if custom < want*0.7 || custom > want*1.3 {
		t.Fatalf("custom block energy = %g pJ, want ~%g", custom, want)
	}
}

func TestBusTapEnergyFromBaseArith(t *testing.T) {
	// A program that never executes the custom instruction still burns
	// energy in the bus-tapped component because base arithmetic drives
	// the shared operand buses (paper Example 1).
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{{
			Name: "tapme", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "tap", Cat: hwlib.AddSubCmp, Width: 32},
				OnBus:     true,
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal },
		}},
	}
	proc, trace, st := runTrace(t, loopSrc, ext)
	if st.CustomCycles != 0 {
		t.Fatal("custom instruction executed unexpectedly")
	}
	e, _ := rtlpower.New(proc, testTech())
	r, err := e.EstimateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tap, idleOnly float64
	for i, b := range proc.Blocks {
		switch b.Name {
		case "tie.tap":
			tap = r.PerBlockPJ[i]
		case "tie.tie_decoder":
			idleOnly = r.PerBlockPJ[i]
		}
	}
	if tap <= 0 {
		t.Fatal("bus-tapped component consumed nothing")
	}
	// The tapped component must burn clearly more than a purely idle
	// custom block of similar size.
	if tap < idleOnly {
		t.Fatalf("tap %g <= idle decoder %g", tap, idleOnly)
	}
}

func TestEstimateProgram(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := rtlpower.New(proc, testTech())
	rep, res, err := e.EstimateProgram(context.Background(), prog, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPJ <= 0 || res.Stats.Cycles == 0 {
		t.Fatal("estimate program produced nothing")
	}
	if rep.Cycles != res.Stats.Cycles {
		t.Fatalf("cycle mismatch: %d vs %d", rep.Cycles, res.Stats.Cycles)
	}
}

func TestNewRejectsBadTech(t *testing.T) {
	proc, _ := procgen.Generate(procgen.Default(), nil)
	bad := rtlpower.DefaultTechnology()
	bad.Detail = -1
	if _, err := rtlpower.New(proc, bad); err == nil {
		t.Fatal("bad technology accepted")
	}
}
