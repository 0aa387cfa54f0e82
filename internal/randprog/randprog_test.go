// Property-based tests over randomly generated programs: ISS accounting
// invariants, determinism, resource-analysis agreement, and the
// disassemble/reassemble round trip.
package randprog_test

import (
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/rtlpower"
)

// runProg runs prog on a base processor. With trace set it also
// returns every retired instruction, appended from the TraceSink's
// batches.
func runProg(t *testing.T, prog *iss.Program, trace bool) (*iss.Result, []iss.TraceEntry) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var entries []iss.TraceEntry
	opts := iss.Options{MaxCycles: 5_000_000}
	if trace {
		opts.TraceSink = func(batch []iss.TraceEntry) error {
			entries = append(entries, batch...)
			return nil
		}
	}
	res, err := iss.New(proc).Run(prog, opts)
	if err != nil {
		t.Fatalf("seeded program failed: %v", err)
	}
	return res, entries
}

func TestGeneratedProgramsHaltAndValidate(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, _ := runProg(t, prog, false)
		if res.Stats.Retired == 0 {
			t.Fatalf("seed %d retired nothing", seed)
		}
	}
}

// Invariant: total cycles decompose exactly into class cycles + custom
// cycles + stall cycles, and retired instructions match opcode counts.
func TestCycleAccountingInvariant(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true, Blocks: 60})
		res, trace := runProg(t, prog, true)
		st := res.Stats
		got := st.CustomCycles + st.StallCycles
		for _, c := range st.ClassCycles {
			got += c
		}
		if got != st.Cycles {
			t.Fatalf("seed %d: %d classified vs %d total cycles", seed, got, st.Cycles)
		}
		var opTotal uint64
		for _, n := range st.OpcodeExec {
			opTotal += n
		}
		if opTotal != st.Retired {
			t.Fatalf("seed %d: opcode counts %d vs retired %d", seed, opTotal, st.Retired)
		}
		if uint64(len(trace)) != st.Retired {
			t.Fatalf("seed %d: trace %d entries vs retired %d", seed, len(trace), st.Retired)
		}
	}
}

// Invariant: simulation is deterministic.
func TestSimulationDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		a, _ := runProg(t, prog, false)
		b, _ := runProg(t, prog, false)
		if a.Stats.Cycles != b.Stats.Cycles ||
			a.Stats.Retired != b.Stats.Retired ||
			a.Stats.ClassCycles != b.Stats.ClassCycles ||
			a.Stats.ICacheMisses != b.Stats.ICacheMisses ||
			a.Stats.DCacheMisses != b.Stats.DCacheMisses ||
			a.Stats.Interlocks != b.Stats.Interlocks ||
			a.Stats.OpcodeExec != b.Stats.OpcodeExec {
			t.Fatalf("seed %d: nondeterministic stats", seed)
		}
		if a.Regs != b.Regs {
			t.Fatalf("seed %d: nondeterministic registers", seed)
		}
	}
}

// Invariant: the reference power estimator is deterministic and finite
// on arbitrary traces.
func TestReferenceEstimatorOnRandomPrograms(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tech := rtlpower.FastTechnology()
	tech.Detail = 0.02
	for seed := int64(0); seed < 8; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true, Blocks: 30})
		_, trace := runProg(t, prog, true)
		est, err := rtlpower.New(proc, tech)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := est.EstimateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		if r1.TotalPJ <= 0 {
			t.Fatalf("seed %d: non-positive energy", seed)
		}
		est2, _ := rtlpower.New(proc, tech)
		r2, err := est2.EstimateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		if r1.TotalPJ != r2.TotalPJ {
			t.Fatalf("seed %d: nondeterministic reference", seed)
		}
	}
}

// Round trip: disassembling a generated program and reassembling the
// text must produce a program with identical architectural behaviour.
func TestDisassembleReassembleRoundTrip(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := asm.New(proc.TIE)
	for seed := int64(0); seed < 15; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		text := isa.Disassemble(prog.Code)
		// The disassembly includes "index:" prefixes; strip them into
		// plain instruction lines.
		src := ""
		for _, line := range splitLines(text) {
			if i := indexByte(line, ':'); i >= 0 {
				src += line[i+1:] + "\n"
			}
		}
		prog2, err := a.Assemble("rt", src)
		if err != nil {
			t.Fatalf("seed %d: reassembly failed: %v\n%s", seed, err, src)
		}
		if len(prog2.Code) != len(prog.Code) {
			t.Fatalf("seed %d: %d vs %d instructions", seed, len(prog2.Code), len(prog.Code))
		}
		for i := range prog.Code {
			if prog.Code[i] != prog2.Code[i] {
				t.Fatalf("seed %d: instruction %d differs: %v vs %v",
					seed, i, prog.Code[i], prog2.Code[i])
			}
		}
		// And identical runs (data segment carried over manually).
		prog2.Data = prog.Data
		r1, _ := runProg(t, prog, false)
		r2, _ := runProg(t, prog2, false)
		if r1.Regs != r2.Regs || r1.Stats.Cycles != r2.Stats.Cycles {
			t.Fatalf("seed %d: behaviour differs after round trip", seed)
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Invariant: the reference estimator's per-block energies always sum to
// the reported total, on arbitrary generated programs.
func TestPerBlockConservationOnRandomPrograms(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tech := rtlpower.FastTechnology()
	tech.Detail = 0.02
	for seed := int64(100); seed < 106; seed++ {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true, Blocks: 25})
		_, trace := runProg(t, prog, true)
		est, err := rtlpower.New(proc, tech)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := est.EstimateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range rep.PerBlockPJ {
			if v < 0 {
				t.Fatalf("seed %d: negative block energy", seed)
			}
			sum += v
		}
		if diff := sum - rep.TotalPJ; diff > 1e-6*rep.TotalPJ || diff < -1e-6*rep.TotalPJ {
			t.Fatalf("seed %d: blocks sum %g vs total %g", seed, sum, rep.TotalPJ)
		}
	}
}
