// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), plus micro-benchmarks of the main pipeline
// stages. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark{Table1,Fig3,Table2,Fig4}* benchmarks regenerate the
// corresponding result; BenchmarkSpeedup* reproduce the macro-model vs
// RTL-reference cost comparison (the paper reports three orders of
// magnitude against gate-level simulation; see EXPERIMENTS.md).
package xtenergy_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/experiments"
	"xtenergy/internal/explore"
	"xtenergy/internal/iss"
	"xtenergy/internal/linalg"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
	"xtenergy/internal/profiler"
	"xtenergy/internal/regress"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/tie"
	"xtenergy/internal/workloads"
)

// Characterization is shared across benchmarks: it is itself benchmarked
// once (BenchmarkTable1Characterize) and reused as a fixture elsewhere.
var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.Fast()
		if _, err := benchSuite.Characterization(); err != nil {
			panic(err)
		}
	})
	return benchSuite
}

// BenchmarkTable1Characterize measures the full characterization flow
// (Table I): 40 test programs x (ISS + resource analysis + reference
// power estimation) + the regression fit. Besides -benchmem's figures
// it reports the garbage collections a pass triggers (gcs/op).
func BenchmarkTable1Characterize(b *testing.B) {
	cfg := procgen.Default()
	tech := rtlpower.FastTechnology()
	suite := workloads.CharacterizationSuite()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Characterize(context.Background(), cfg, tech, suite, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// BenchmarkFig3FittingErrors measures regenerating the fitting-error
// profile from a built model (the regression + residual side of Fig. 3).
func BenchmarkFig3FittingErrors(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if f.MaxAbsPct > 10 {
			b.Fatalf("fit degraded: %v", f.MaxAbsPct)
		}
	}
}

// BenchmarkTable2Applications measures the fast estimation path over the
// ten Table II applications (what a designer iterating on custom
// instructions actually pays per candidate).
func BenchmarkTable2Applications(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	apps := workloads.Applications()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range apps {
			if _, err := cr.Model.EstimateWorkload(s.Config, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4ReedSolomon measures estimating the four Reed-Solomon
// custom-instruction choices with the macro-model (the Fig. 4 sweep).
func BenchmarkFig4ReedSolomon(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	cfgs := workloads.ReedSolomonConfigurations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range cfgs {
			if _, err := cr.Model.EstimateWorkload(s.Config, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSpeedupMacroModel and BenchmarkSpeedupRTLReference together
// reproduce the speedup comparison on one application (DES): divide the
// two ns/op figures to get the speedup factor. The reference runs at
// full netlist resolution (Detail 1.0), as the honest cost of the slow
// path.
func BenchmarkSpeedupMacroModel(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	w := workloads.DES()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cr.Model.EstimateWorkload(s.Config, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedupRTLReference(b *testing.B) {
	s := sharedSuite(b)
	tech := s.Tech
	tech.Detail = 1.0
	w := workloads.DES()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReferenceEnergy(context.Background(), s.Config, tech, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInstructionOnly measures refitting and rescoring the
// instruction-level-only model variant (the hybrid-vs-instruction-only
// ablation of DESIGN.md).
func BenchmarkAblationInstructionOnly(b *testing.B) {
	s := sharedSuite(b)
	if _, err := s.Table2(); err != nil { // populates the app cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the pipeline stages ---

// BenchmarkISS measures raw instruction-set simulation throughput
// (report as instructions/ns via b.N scaling).
func BenchmarkISS(b *testing.B) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		b.Fatal(err)
	}
	w := workloads.Bubsort()
	prog, err := asm.New(proc.TIE).Assemble(w.Name, w.Source)
	if err != nil {
		// bubsort uses custom mnemonics; fall back to a base program.
		w2 := workloads.ReedSolomonBase()
		prog, err = asm.New(proc.TIE).Assemble(w2.Name, w2.Source)
		if err != nil {
			b.Fatal(err)
		}
	}
	sim := iss.New(proc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(prog, iss.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Retired), "instrs/op")
	}
}

// BenchmarkISSSteps measures the pure simulation hot loop — no trace,
// no estimator — over the Reed-Solomon base workload. This is the loop
// the predecoded plan (internal/plan) feeds: per-instruction metadata
// comes from the program's prebuilt records and dispatch is an indexed
// table walk. allocs/op must stay independent of how many instructions
// retire (steady state allocates nothing per step); ns/op divided by
// instrs/op is the per-instruction cost tracked in BENCH_iss.json.
func BenchmarkISSSteps(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	sim := iss.New(proc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(prog, iss.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Retired), "instrs/op")
	}
}

// BenchmarkPlanBuild measures predecoding one program into its plan
// (plan.Build) — the one-time cost the hot loop's per-step savings are
// bought with. It is paid once per (program, extension) pair and
// amortizes across every consumer and every re-run.
func BenchmarkPlanBuild(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plan.Build(prog.Code, prog.Uncached, proc.TIE)
		if len(p.Recs) != len(prog.Code) {
			b.Fatal("short plan")
		}
	}
}

// BenchmarkISSWithTrace measures the ISS feeding a TraceSink: building
// every retired instruction's entry and delivering it in batches, the
// feed the reference path pays before any estimation.
func BenchmarkISSWithTrace(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	sim := iss.New(proc)
	opts := iss.Options{TraceSink: func([]iss.TraceEntry) error { return nil }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// recordTrace runs prog on proc and returns every retired instruction,
// appended from the TraceSink's batches.
func recordTrace(b *testing.B, proc *procgen.Processor, prog *iss.Program) []iss.TraceEntry {
	b.Helper()
	var trace []iss.TraceEntry
	if _, err := iss.New(proc).Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		trace = append(trace, batch...)
		return nil
	}}); err != nil {
		b.Fatal(err)
	}
	return trace
}

// BenchmarkRTLPowerEstimate measures the structural reference estimator
// alone, per walker tier the host runs (WithKernel) at the default and
// the -fast resolution. A recorded rs_base trace is fed in the ISS's
// streamed batch size, as RunStreamed feeds it, and the result is
// reported per simulated cycle.
func BenchmarkRTLPowerEstimate(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	trace := recordTrace(b, proc, prog)
	for _, tc := range []struct {
		name string
		tech rtlpower.Technology
	}{
		{"default", rtlpower.DefaultTechnology()},
		{"fast", rtlpower.FastTechnology()},
	} {
		est, err := rtlpower.New(proc, tc.tech)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range rtlpower.SupportedKernels() {
			tier, err := est.WithKernel(k)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/"+k.String(), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					st := tier.Stream()
					for lo := 0; lo < len(trace); lo += iss.TraceBatchSize {
						if err := st.Consume(trace[lo:min(lo+iss.TraceBatchSize, len(trace))]); err != nil {
							b.Fatal(err)
						}
					}
					rep, err := st.Finish()
					if err != nil {
						b.Fatal(err)
					}
					cycles += rep.Cycles
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}

// BenchmarkReferenceStreamed measures the streaming reference path —
// the ISS feeding the incremental StreamEstimator through the bounded
// batch channel (rtlpower.RunStreamed). Its halves are
// BenchmarkISSWithTrace (the feed) and BenchmarkRTLPowerEstimate (the
// estimator over a recorded trace); allocs/op here is independent of
// how many instructions the workload retires.
func BenchmarkReferenceStreamed(b *testing.B) {
	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		b.Fatal(err)
	}
	est, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := est.Stream()
		if _, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{}, st); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembler measures two-pass assembly of a mid-sized program.
func BenchmarkAssembler(b *testing.B) {
	w := workloads.ReedSolomonBase()
	comp, err := tie.Compile(nil)
	if err != nil {
		b.Fatal(err)
	}
	a := asm.New(comp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assemble(w.Name, w.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionFit measures solving the 40x21 least-squares system
// (the fit itself, excluding simulation).
func BenchmarkRegressionFit(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	n := len(cr.Observations)
	x := linalg.NewMatrix(n, core.NumVars)
	y := make([]float64, n)
	for i, o := range cr.Observations {
		for j := 0; j < core.NumVars; j++ {
			// Tiny jitter keeps unused columns from being all zero.
			x.Set(i, j, o.Vars[j]+float64((i+j)%3))
		}
		y[i] = o.MeasuredPJ
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitLinear(x, y, regress.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidationApplications measures the fast path over the five
// extended validation applications.
func BenchmarkValidationApplications(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	apps := workloads.ValidationApplications()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range apps {
			if _, err := cr.Model.EstimateWorkload(s.Config, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExploreDesignSpace measures pricing the 4-choice Reed-Solomon
// design space with the macro-model, Pareto marking included.
func BenchmarkExploreDesignSpace(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	var cands []explore.Candidate
	for _, w := range workloads.ReedSolomonConfigurations() {
		cands = append(cands, explore.Candidate{Config: s.Config, Workload: w})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.Evaluate(cr.Model, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiler measures per-instruction energy attribution: the
// ISS run and the pricing of each entry as it streams past.
func BenchmarkProfiler(b *testing.B) {
	s := sharedSuite(b)
	cr, err := s.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	w, _ := workloads.ByName("rs_base")
	proc, prog, err := w.Build(s.Config)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profiler.Profile(context.Background(), cr.Model, proc, prog); err != nil {
			b.Fatal(err)
		}
	}
}
