package rtlpower_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
	"xtenergy/internal/workloads"
)

// pipelineRun is everything one estimation pass lets a caller observe:
// the report and, through a one-cycle ProfileAccumulator, every
// OnEntry call's cycles and energy.
type pipelineRun struct {
	rep    rtlpower.Report
	points []rtlpower.ProfilePoint
}

// consumeSerial prices trace with serial Consume calls in the ISS's
// batch size, on the caller's goroutine.
func consumeSerial(t *testing.T, est *rtlpower.Estimator, trace []iss.TraceEntry) pipelineRun {
	t.Helper()
	st := est.Stream()
	acc := rtlpower.NewProfileAccumulator(1)
	st.OnEntry = acc.OnEntry
	for lo := 0; lo < len(trace); lo += iss.TraceBatchSize {
		if err := st.Consume(trace[lo:min(lo+iss.TraceBatchSize, len(trace))]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return pipelineRun{rep, acc.Points()}
}

// runPipelined prices prog through RunStreamed, the ISS and the stream
// sharing its two goroutines.
func runPipelined(t *testing.T, est *rtlpower.Estimator, proc *procgen.Processor, prog *iss.Program) pipelineRun {
	t.Helper()
	st := est.Stream()
	acc := rtlpower.NewProfileAccumulator(1)
	st.OnEntry = acc.OnEntry
	res, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != res.Stats.Cycles {
		t.Fatalf("estimator consumed %d cycles, ISS retired %d", rep.Cycles, res.Stats.Cycles)
	}
	return pipelineRun{rep, acc.Points()}
}

// samePipelineRun requires two passes to agree bit for bit: report,
// every per-block energy's bits, and every OnEntry call.
func samePipelineRun(t *testing.T, got, want pipelineRun) {
	t.Helper()
	if math.Float64bits(got.rep.TotalPJ) != math.Float64bits(want.rep.TotalPJ) || got.rep.Cycles != want.rep.Cycles {
		t.Errorf("report %v pJ / %d cycles, want %v pJ / %d cycles (bit-identical)",
			got.rep.TotalPJ, got.rep.Cycles, want.rep.TotalPJ, want.rep.Cycles)
	}
	if len(got.rep.PerBlockPJ) != len(want.rep.PerBlockPJ) {
		t.Fatalf("%d blocks, want %d", len(got.rep.PerBlockPJ), len(want.rep.PerBlockPJ))
	}
	for i, w := range want.rep.PerBlockPJ {
		if math.Float64bits(got.rep.PerBlockPJ[i]) != math.Float64bits(w) {
			t.Errorf("PerBlockPJ[%d] = %v, want %v (bit-identical)", i, got.rep.PerBlockPJ[i], w)
		}
	}
	if len(got.points) != len(want.points) {
		t.Fatalf("OnEntry called %d times, want %d", len(got.points), len(want.points))
	}
	for i, w := range want.points {
		g := got.points[i]
		if g.StartCycle != w.StartCycle || g.Cycles != w.Cycles || math.Float64bits(g.EnergyPJ) != math.Float64bits(w.EnergyPJ) {
			t.Fatalf("OnEntry %d = %+v, want %+v (bit-identical)", i, g, w)
		}
	}
}

// tinySrc retires a handful of instructions. At sparseTech its one
// chunk falls under the lane walk's draw minimum, and the scalar chain
// counts it.
const tinySrc = `
    movi a2, 3
    movi a3, 5
    add a4, a3, a2
    ret
`

// sparseTech models every block with the fewest nets the estimator
// allows, so short chunks stay under the lane walk's draw minimum.
func sparseTech() rtlpower.Technology {
	t := rtlpower.FastTechnology()
	t.Detail = 0.001
	return t
}

// TestRunStreamedMatchesConsume pins the pipelined stream to serial
// Consume calls on every walker tier this host runs, at the default,
// the fast and a sparse technology: a TIE workload (des), a base one
// (gcd) and a program whose only chunk falls under the lane walk's
// draw minimum.
func TestRunStreamedMatchesConsume(t *testing.T) {
	type program struct {
		name string
		proc *procgen.Processor
		prog *iss.Program
	}
	var progs []program
	for _, name := range []string{"des", "gcd"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		proc, prog, err := wl.Build(procgen.Default())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{name, proc, prog})
	}
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("tiny", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, program{"tiny", proc, prog})

	for _, p := range progs {
		trace, _ := rtlpower.RecordTrace(t, p.proc, p.prog)
		for _, tech := range []rtlpower.Technology{rtlpower.DefaultTechnology(), rtlpower.FastTechnology(), sparseTech()} {
			est, err := rtlpower.New(p.proc, tech)
			if err != nil {
				t.Fatal(err)
			}
			if p.name == "tiny" && tech.Detail == sparseTech().Detail {
				if d := rtlpower.ChunkDraws(est.Stream(), trace); d >= rtlpower.LaneMinDraws {
					t.Fatalf("tiny program draws %d, want under %d", d, rtlpower.LaneMinDraws)
				}
			}
			for _, k := range rtlpower.SupportedKernels() {
				ek, err := est.WithKernel(k)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("%s/detail%g/%s", p.name, tech.Detail, k), func(t *testing.T) {
					samePipelineRun(t, runPipelined(t, ek, p.proc, p.prog), consumeSerial(t, ek, trace))
				})
			}
		}
	}
}

// burnExt is a one-instruction extension whose custom instruction
// takes the longest latency TIE allows, so a batch of them charges
// many cycles.
func burnExt() *tie.Extension {
	return &tie.Extension{
		Name: "slow",
		Instructions: []*tie.Instruction{{
			Name: "burn", Latency: 64, ReadsGeneral: true, WritesGeneral: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "heavy", Cat: hwlib.Shifter, Width: 32},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal >> 1 },
		}},
	}
}

// TestRunStreamedOverCapChunk runs a chunk over the lane walk's 32-bit
// draw cap through RunStreamed: it waits for the chunks in flight,
// takes Consume's serial path on the simulator's goroutine, which
// halves the chunk until each half fits the cap, and the stream goes on
// pipelining after it, with the same report and OnEntry calls as serial
// Consume. The clock tree is given enough nets that a batch of 64-cycle
// custom instructions crosses the cap while base batches before it stay
// under; the over-cap chunk is over 2^30 draws, so the test takes
// about a second.
func TestRunStreamedOverCapChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("walks over 2^30 draws")
	}
	proc, err := procgen.Generate(procgen.Default(), burnExt())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("overcap", `
    movi a2, 300
    movi a3, 17
base:
    add a4, a3, a2
    addi a2, a2, -1
    bnez a2, base
    movi a2, 180
burnloop:
    burn a3, a3, a2
    addi a2, a2, -1
    bnez a2, burnloop
    movi a2, 200
tail:
    xor a3, a3, a2
    addi a2, a2, -1
    bnez a2, tail
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	tech := rtlpower.FastTechnology()
	tech.Blocks[procgen.BlockClock].Nets = 4_000_000
	est, err := rtlpower.New(proc, tech)
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := rtlpower.RecordTrace(t, proc, prog)
	var over, under int
	for lo := 0; lo < len(trace); lo += iss.TraceBatchSize {
		if rtlpower.ChunkDraws(est.Stream(), trace[lo:min(lo+iss.TraceBatchSize, len(trace))]) > rtlpower.MaxChunkDraws {
			over++
		} else {
			under++
		}
	}
	if over != 1 || under < 4 {
		t.Fatalf("%d batches over the draw cap and %d under; want one over and some under", over, under)
	}
	samePipelineRun(t, runPipelined(t, est, proc, prog), consumeSerial(t, est, trace))
}

// TestRunStreamedAddsOneGoroutine pins RunStreamed's concurrency: a run
// adds at most one goroutine (the consumer), and it exits once
// RunStreamed has returned.
func TestRunStreamedAddsOneGoroutine(t *testing.T) {
	w := workloads.DES()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	est, err := rtlpower.New(proc, rtlpower.DefaultTechnology())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	st := est.Stream()
	peak := 0
	// OnEntry runs on the consumer goroutine while the simulator runs.
	st.OnEntry = func(int, uint64, float64) { peak = max(peak, runtime.NumGoroutine()) }
	if _, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{}, st); err != nil {
		t.Fatal(err)
	}
	if peak > base+1 {
		t.Errorf("%d goroutines during the run, %d before it; want at most one more", peak, base)
	}
	settleGoroutines(t, base)
}

// TestRunStreamedEstimatorCancel cancels a pipelined estimate from its
// fold, mid-stream: the run must return the cancelled fault within a
// few batches and leave no goroutine behind.
func TestRunStreamedEstimatorCancel(t *testing.T) {
	proc, prog := buildLong(t)
	est, err := rtlpower.New(proc, rtlpower.DefaultTechnology())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := est.Stream()
	folded := 0
	st.OnEntry = func(int, uint64, float64) {
		if folded++; folded == 1 {
			cancel()
		}
	}
	_, err = rtlpower.RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, st)
	f, ok := iss.AsFault(err)
	if !ok || f.Kind != iss.FaultCancelled || !errors.Is(err, context.Canceled) {
		t.Fatalf("want a cancelled fault wrapping context.Canceled, got %v", err)
	}
	if folded > 8*iss.TraceBatchSize {
		t.Fatalf("folded %d entries after cancelling on the first", folded)
	}
	settleGoroutines(t, base)
}

// TestRunStreamedAllocationsFollowRun pins the pipelined stream's
// memory to the run, not its length: a RunStreamed call allocates as
// many objects for 1k retired instructions as for 100k.
func TestRunStreamedAllocationsFollowRun(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := asm.New(proc.TIE)
	countdown := func(n int) *iss.Program {
		prog, err := a.Assemble("countdown", fmt.Sprintf("movi a2, %d\nloop:\n addi a2, a2, -1\n bnez a2, loop\n ret\n", n))
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	short, long := countdown(500), countdown(50_000)
	est, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		t.Fatal(err)
	}
	sim := iss.New(proc)
	// One stream per program across its runs keeps its schedules, so
	// the count is RunStreamed's own, not the schedule pool's.
	run := func(p *iss.Program) func() {
		st := est.Stream()
		return func() {
			if _, err := rtlpower.RunStreamed(context.Background(), sim, p, iss.Options{}, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	runShort, runLong := run(short), run(long)
	runShort()
	runLong()
	allocsShort := testing.AllocsPerRun(5, runShort)
	allocsLong := testing.AllocsPerRun(5, runLong)
	if allocsShort != allocsLong {
		t.Errorf("RunStreamed allocates %.1f objects for ~1k instructions and %.1f for ~100k", allocsShort, allocsLong)
	}
}
