package resource_test

import (
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/resource"
	"xtenergy/internal/tie"
	"xtenergy/internal/workloads"
)

func macExt() *tie.Extension {
	return &tie.Extension{
		Name:          "m",
		NumCustomRegs: 1,
		Instructions: []*tie.Instruction{
			{
				Name: "macc", Latency: 2, ReadsGeneral: true,
				Datapath: []tie.DatapathElem{
					{Component: hwlib.Component{Name: "mu", Cat: hwlib.TIEMac, Width: 16}, OnBus: true},
					{Component: hwlib.Component{Name: "ar", Cat: hwlib.CustomRegister, Width: 32}},
				},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					s.Regs[0] += op.RsVal * op.RtVal
					return 0
				},
			},
		},
	}
}

func run(t *testing.T, src string, ext *tie.Extension) (*tie.Compiled, *iss.Result, []iss.TraceEntry) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	res, trace := recordTrace(t, proc, prog)
	return proc.TIE, res, trace
}

// recordTrace runs prog on proc and returns the result and every
// retired instruction, appended from the TraceSink's batches.
func recordTrace(t *testing.T, proc *procgen.Processor, prog *iss.Program) (*iss.Result, []iss.TraceEntry) {
	t.Helper()
	var trace []iss.TraceEntry
	res, err := iss.New(proc).Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		trace = append(trace, batch...)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

const macSrc = `
    movi a2, 20
    movi a3, 3
loop:
    macc a1, a2, a3
    add a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    ret
`

func TestFromStatsCounts(t *testing.T) {
	comp, res, _ := run(t, macSrc, macExt())
	vars, err := resource.FromStats(comp, &res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	// 20 executions x latency 2 x weight (16/32)^2 for the TIE mac,
	// plus bus taps from base arith instructions.
	macWeight := hwlib.Component{Name: "x", Cat: hwlib.TIEMac, Width: 16}.Complexity()
	fromInstr := 20.0 * 2 * macWeight
	arithCount := 2.0 + 2*20 // movi x2 + (add+addi) x 20
	fromTaps := arithCount * macWeight
	want := fromInstr + fromTaps
	if vars[hwlib.TIEMac] != want {
		t.Fatalf("tie-mac var = %g, want %g", vars[hwlib.TIEMac], want)
	}
	// Custom register: instruction's 32-bit reg (1.0) + generated
	// regfile, both for 2 cycles x 20 execs; no bus taps.
	if vars[hwlib.CustomRegister] <= 40 {
		t.Fatalf("custom-reg var = %g, want > 40", vars[hwlib.CustomRegister])
	}
	// Control logic active on custom cycles.
	if vars[hwlib.LogicRedMux] <= 0 {
		t.Fatal("control logic variable missing")
	}
	// Unused categories stay zero.
	for _, cat := range []hwlib.Category{hwlib.Multiplier, hwlib.Shifter, hwlib.Table} {
		if vars[cat] != 0 {
			t.Fatalf("unused category %s = %g", cat, vars[cat])
		}
	}
}

func TestFromTraceMatchesFromStats(t *testing.T) {
	comp, res, trace := run(t, macSrc, macExt())
	fromStats, err := resource.FromStats(comp, &res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := resource.FromTrace(comp, trace)
	if err != nil {
		t.Fatal(err)
	}
	if fromStats != fromTrace {
		t.Fatalf("stats path %v != trace path %v", fromStats, fromTrace)
	}
}

func TestFromStatsBaseOnly(t *testing.T) {
	comp, res, _ := run(t, "movi a1, 5\n add a2, a1, a1\n ret\n", nil)
	vars, err := resource.FromStats(comp, &res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if vars != (resource.Vars{}) {
		t.Fatalf("base-only program has structural activity: %v", vars)
	}
}

func TestNilCompiledRejected(t *testing.T) {
	var st iss.Stats
	if _, err := resource.FromStats(nil, &st); err == nil {
		t.Fatal("nil compiled accepted")
	}
	if _, err := resource.FromTrace(nil, nil); err == nil {
		t.Fatal("nil compiled accepted")
	}
}

// The two analysis paths must agree on every workload in the repository
// (the compact-statistics path is the one used for estimation; the trace
// path is the paper's description).
func TestPathsAgreeOnAllWorkloads(t *testing.T) {
	all := workloads.CharacterizationSuite()
	all = append(all, workloads.Applications()...)
	all = append(all, workloads.ReedSolomonConfigurations()...)
	cfg := procgen.Default()
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			proc, prog, err := w.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, trace := recordTrace(t, proc, prog)
			a, err := resource.FromStats(proc.TIE, &res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			b, err := resource.FromTrace(proc.TIE, trace)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("paths disagree: %v vs %v", a, b)
			}
		})
	}
}
