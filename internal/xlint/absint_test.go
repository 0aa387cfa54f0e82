package xlint_test

import (
	"strings"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

// analyzeAsm assembles src on the default core and returns the report.
func analyzeAsm(t *testing.T, src string) (*xlint.Report, *procgen.Processor, *iss.Program) {
	t.Helper()
	proc, prog, err := (&core.Workload{Name: "t", Source: src}).Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	return xlint.Analyze(prog, proc), proc, prog
}

func hasCode(rep *xlint.Report, code string) bool {
	for _, f := range rep.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

// TestAbsintSoundEveryWorkload is the soundness oracle: for every
// registered workload, every register value the ISS runs an instruction
// with, rebuilt from its trace by regShadow, must lie inside the
// abstract interpreter's converged interval for that register at that
// pc. Any violation means a transfer function or refinement disagrees
// with the exec table.
func TestAbsintSoundEveryWorkload(t *testing.T) {
	cfgP := procgen.Default()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			proc, prog, err := w.Build(cfgP)
			if err != nil {
				t.Fatal(err)
			}
			rep := xlint.Analyze(prog, proc)
			if rep.Abs == nil {
				t.Fatal("Analyze left Report.Abs nil")
			}
			shadow := newRegShadow(proc, rep.Abs)
			_, err = iss.New(proc).Run(prog, iss.Options{TraceSink: shadow.sink})
			if shadow.violation != nil {
				t.Fatalf("abstract state violated: %v", shadow.violation)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTripCountDownCounting pins the canonical decrement loop: movi 10
// then addi -1 / bnez means the back edge is traversed exactly 9 times.
func TestTripCountDownCounting(t *testing.T) {
	rep, proc, _ := analyzeAsm(t, `
    movi a2, 10
    movi a3, 0
top:
    addi a3, a3, 1
    addi a2, a2, -1
    bnez a2, top
    ret
`)
	m := unitModel()
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Terms) != 1 {
		t.Fatalf("terms = %+v, want one back edge", w.Terms)
	}
	tr := w.Terms[0]
	if tr.TripLo != 9 || tr.TripHi != 9 {
		t.Errorf("trips [%g, %g] (%s), want exactly [9, 9]", tr.TripLo, tr.TripHi, tr.Source)
	}
	if !w.Bounded {
		t.Errorf("decrement loop not bounded: %+v", w)
	}
}

// TestTripCountUpCounting pins the compare-bounded shape: addi +1 with a
// blt against a loop-invariant register bound.
func TestTripCountUpCounting(t *testing.T) {
	rep, proc, _ := analyzeAsm(t, `
    movi a2, 0
    movi a3, 8
top:
    add  a4, a4, a2
    addi a2, a2, 1
    blt  a2, a3, top
    ret
`)
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, unitModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Terms) != 1 {
		t.Fatalf("terms = %+v, want one back edge", w.Terms)
	}
	tr := w.Terms[0]
	// Tests at a2 = 1..8: seven continue (a2 < 8 for 1..7).
	if tr.TripLo != 7 || tr.TripHi != 7 {
		t.Errorf("trips [%g, %g] (%s), want exactly [7, 7]", tr.TripLo, tr.TripHi, tr.Source)
	}
}

// TestTripCountHeaderTest pins the header-tested (while-style) loop with
// the exit test before the body.
func TestTripCountHeaderTest(t *testing.T) {
	rep, proc, _ := analyzeAsm(t, `
    movi a2, 5
top:
    beqz a2, done
    add  a4, a4, a2
    addi a2, a2, -1
    j top
done:
    ret
`)
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, unitModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Terms) != 1 {
		t.Fatalf("terms = %+v, want one back edge", w.Terms)
	}
	tr := w.Terms[0]
	if tr.TripLo != 5 || tr.TripHi != 5 {
		t.Errorf("trips [%g, %g] (%s), want exactly [5, 5]", tr.TripLo, tr.TripHi, tr.Source)
	}
}

// TestTripCountNested: the inner loop's total trips scale with the outer
// loop's trip count.
func TestTripCountNested(t *testing.T) {
	rep, proc, _ := analyzeAsm(t, `
    movi a2, 4
outer:
    movi a3, 3
inner:
    addi a3, a3, -1
    bnez a3, inner
    addi a2, a2, -1
    bnez a2, outer
    ret
`)
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, unitModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Terms) != 2 {
		t.Fatalf("terms = %+v, want two back edges", w.Terms)
	}
	var inner, outer *xlint.WCECTerm
	for i := range w.Terms {
		if w.Terms[i].FromPC == w.Terms[i].HeaderPC {
			inner = &w.Terms[i]
		} else {
			outer = &w.Terms[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("could not identify inner/outer terms: %+v", w.Terms)
	}
	if outer.TripLo != 3 || outer.TripHi != 3 {
		t.Errorf("outer trips [%g, %g], want [3, 3]", outer.TripLo, outer.TripHi)
	}
	// Inner: 2 per entry, 4 entries (outer trips + 1). Upper bound is the
	// product; the per-entry lower bound survives because the loop is
	// single-exit and on every path.
	if inner.TripHi != 8 {
		t.Errorf("inner TripHi = %g, want 2*(3+1) = 8", inner.TripHi)
	}
	if inner.TripLo != 2 {
		t.Errorf("inner TripLo = %g, want per-entry 2", inner.TripLo)
	}
}

// TestTripCountHardwareLoop: the LOOP count register's interval bounds
// the LoopBack edge exactly.
func TestTripCountHardwareLoop(t *testing.T) {
	cfg := procgen.Default()
	cfg.HasLoops = true
	proc, err := procgen.Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("hw", `
    movi a2, 6
    movi a3, 0
    loop a2, done
    addi a3, a3, 1
done:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := xlint.Analyze(prog, proc)
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, unitModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Terms) != 1 {
		t.Fatalf("terms = %+v, want the LoopBack edge", w.Terms)
	}
	tr := w.Terms[0]
	if tr.TripLo != 5 || tr.TripHi != 5 || tr.Source != "hwloop" {
		t.Errorf("trips [%g, %g] (%s), want exactly [5, 5] (hwloop)", tr.TripLo, tr.TripHi, tr.Source)
	}
}

// TestAbsintDeadEdge: a branch whose condition is statically decided
// yields a dead-edge note on the impossible direction.
func TestAbsintDeadEdge(t *testing.T) {
	rep, _, _ := analyzeAsm(t, `
    movi a2, 3
    bnez a2, always
    movi a3, 99
always:
    ret
`)
	if !hasCode(rep, "absint-dead-edge") {
		t.Errorf("no absint-dead-edge finding; findings: %v", rep.Findings)
	}
}

// TestAbsintZeroTrip: a loop whose counter is provably zero at the test
// never iterates.
func TestAbsintZeroTrip(t *testing.T) {
	rep, _, _ := analyzeAsm(t, `
    movi a2, 0
top:
    beqz a2, done
    addi a2, a2, -1
    j top
done:
    ret
`)
	if !hasCode(rep, "absint-zero-trip") && !hasCode(rep, "absint-dead-edge") {
		t.Errorf("zero-trip loop not flagged; findings: %v", rep.Findings)
	}
}

// TestAbsintLoopForever: LOOP with a provably zero count register wraps
// to 2^32 iterations — flagged as a warning.
func TestAbsintLoopForever(t *testing.T) {
	cfg := procgen.Default()
	cfg.HasLoops = true
	proc, err := procgen.Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("forever", `
    movi a2, 0
    loop a2, done
    addi a3, a3, 1
done:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	rep := xlint.Analyze(prog, proc)
	if !hasCode(rep, "absint-loop-forever") {
		t.Errorf("LOOP with zero count not flagged; findings: %v", rep.Findings)
	}
}

// TestAbsintMemRange: a load whose effective address provably exceeds
// data memory is flagged.
func TestAbsintMemRange(t *testing.T) {
	rep, _, _ := analyzeAsm(t, `
    movi a2, 1
    slli a2, a2, 24
    l32i a4, a2, 0
    ret
`)
	// a2 = 16 MiB, far beyond the 1 MiB data memory.
	if !hasCode(rep, "absint-mem-range") {
		t.Errorf("provably out-of-range load not flagged; findings: %v", rep.Findings)
	}
}

// TestAbsintCheckRejectsOutOfInterval: the oracle must actually fire on
// a fabricated out-of-interval value — guarding against a vacuously
// passing soundness sweep.
func TestAbsintCheckRejectsOutOfInterval(t *testing.T) {
	rep, _, _ := analyzeAsm(t, `
    movi a2, 7
    addi a2, a2, 1
    ret
`)
	var regs [isa.NumRegs]uint32
	regs[0] = 0xFFFF_FFFF // link-register halt sentinel, as at ISS reset
	regs[2] = 12345       // pc 1 should see exactly 7
	err := rep.Abs.Check(1, &regs)
	if err == nil {
		t.Fatal("Check accepted a register value outside its interval")
	}
	if !strings.Contains(err.Error(), "a2") {
		t.Errorf("error does not name the violating register: %v", err)
	}
	regs[2] = 7
	if err := rep.Abs.Check(1, &regs); err != nil {
		t.Errorf("Check rejected the in-interval value: %v", err)
	}
}

// unitModel prices every macro-model variable at 1 pJ, so WCEC tests
// count "weighted events" with no fit dependency.
func unitModel() *core.MacroModel {
	m := &core.MacroModel{}
	for i := range m.Coef {
		m.Coef[i] = 1
	}
	return m
}
