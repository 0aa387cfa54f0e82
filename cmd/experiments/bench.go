package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"xtenergy/internal/engine"
	"xtenergy/internal/iss"
	"xtenergy/internal/memo"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// The bench subcommand is the perf-trajectory recorder: it runs the
// ISS-path micro-benchmarks in process (testing.Benchmark, same bodies
// as the go-test benchmarks in bench_test.go) and maintains a JSON file
// with two snapshots per benchmark — "baseline", frozen when first
// recorded, and "current", overwritten on every run — so a PR can show
// its ns/op delta against the numbers it started from.

// benchEntry is one benchmark measurement.
type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	InstrsPerOp float64 `json:"instrs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n,omitempty"`
}

// benchFile is the on-disk BENCH_iss.json layout.
type benchFile struct {
	Note     string                `json:"note"`
	GOOS     string                `json:"goos"`
	GOARCH   string                `json:"goarch"`
	Baseline map[string]benchEntry `json:"baseline"`
	Current  map[string]benchEntry `json:"current"`
}

// benchLanes lists the recorded benchmarks in print order. The
// per-tier simulate_nets_<kernel> lanes are appended at runtime, since
// which tiers run depends on the host.
var benchLanes = []string{"iss_steps", "plan_build", "simulate_nets", "reference_streamed", "cached_path"}

// checkTolerance is how much slower than its frozen baseline a lane's
// ns/op may drift before `bench -check` fails the run. Wide enough for
// scheduler noise on the estimator lanes (which run with a longer
// benchtime for stability), tight enough to catch a real regression.
const checkTolerance = 1.15

func runBench(argv []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonPath := fs.String("json", "BENCH_iss.json", "benchmark trajectory file to update")
	benchtime := fs.String("benchtime", "", "per-benchmark budget in testing -benchtime syntax (e.g. 2s, 1x)")
	check := fs.Bool("check", false, "exit nonzero when any lane's ns/op regresses more than 15% vs its frozen baseline")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	testing.Init()
	setBenchtime := func(bt string) error {
		if *benchtime != "" {
			bt = *benchtime // explicit budget overrides per-lane defaults
		}
		return flag.Set("test.benchtime", bt)
	}

	w := workloads.ReedSolomonBase()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		return err
	}

	current := map[string]benchEntry{}

	sim := iss.New(proc)
	if err := setBenchtime("1s"); err != nil {
		return err
	}
	current["iss_steps"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(prog, iss.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Stats.Retired), "instrs/op")
		}
	}))

	current["plan_build"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := plan.Build(prog.Code, prog.Uncached, proc.TIE)
			if len(p.Recs) != len(prog.Code) {
				b.Fatal("short plan")
			}
		}
	}))

	est, err := rtlpower.New(proc, rtlpower.FastTechnology())
	if err != nil {
		return err
	}

	// The estimator lanes get a longer default budget: the historical
	// reference_streamed baseline froze at n=9, too few iterations to
	// keep run-to-run noise inside the -check tolerance.
	if err := setBenchtime("3s"); err != nil {
		return err
	}

	// simulate_nets isolates the net-simulation kernel from the ISS:
	// pure estimation over a trace recorded through the simulator's
	// sink before timing (the in-process twin of
	// BenchmarkRTLPowerEstimate).
	var trace []iss.TraceEntry
	if _, err := sim.Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		trace = append(trace, batch...)
		return nil
	}}); err != nil {
		return err
	}
	current["simulate_nets"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateTrace(trace); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Per-tier lanes pin each supported walker kernel in turn, so a
	// regression in one tier's assembly shows up even when it is not the
	// host's default. Shorter budget: these guard relative drift per
	// tier, while the simulate_nets lane above owns the headline number.
	lanes := append([]string(nil), benchLanes...)
	if err := setBenchtime("1s"); err != nil {
		return err
	}
	for _, k := range rtlpower.SupportedKernels() {
		ek, err := est.WithKernel(k)
		if err != nil {
			return err
		}
		lane := "simulate_nets_" + k.String()
		lanes = append(lanes, lane)
		current[lane] = toEntry(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ek.EstimateTrace(trace); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	if err := setBenchtime("3s"); err != nil {
		return err
	}

	current["reference_streamed"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := est.Stream()
			if _, err := rtlpower.RunStreamed(context.Background(), iss.New(proc), prog, iss.Options{}, st); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// cached_path measures a warm artifact-store hit end to end: digest
	// the canonical request, recall the artifact from the in-memory
	// tier, decode, and render the report — microseconds against the
	// cold reference_streamed lane above, which is what a miss costs.
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return err
	}
	spec := engine.EstimateSpec{Workload: w, Config: procgen.Default(), Tech: rtlpower.FastTechnology()}
	if _, _, err := eng.Estimate(context.Background(), spec); err != nil { // prime the store
		return err
	}
	if err := setBenchtime("1s"); err != nil {
		return err
	}
	current["cached_path"] = toEntry(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, out, err := eng.Estimate(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if out != memo.OutcomeMemHit {
				b.Fatalf("warm request missed the store: %v", out)
			}
			if a.Render() == "" {
				b.Fatal("empty report")
			}
		}
	}))

	f := benchFile{
		Note:   "ISS-path perf trajectory over the rs_base workload; baseline is frozen at first record, current is overwritten by `experiments bench`",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	if raw, err := os.ReadFile(*jsonPath); err == nil {
		var prev benchFile
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("bench: %s exists but is not a trajectory file: %w", *jsonPath, err)
		}
		f.Baseline = prev.Baseline
	}
	if f.Baseline == nil {
		f.Baseline = current
	}
	// Lanes added after the baseline froze get their baseline frozen
	// now, at first record.
	for name, cur := range current {
		if _, ok := f.Baseline[name]; !ok {
			f.Baseline[name] = cur
		}
	}
	f.Current = current

	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
		return err
	}

	var regressed []string
	for _, name := range lanes {
		cur := f.Current[name]
		line := fmt.Sprintf("%-20s %14.0f ns/op %8d B/op %6d allocs/op", name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp)
		if base, ok := f.Baseline[name]; ok && base.NsPerOp > 0 && base != cur {
			line += fmt.Sprintf("   (baseline %14.0f ns/op, %+.1f%%)", base.NsPerOp, 100*(cur.NsPerOp-base.NsPerOp)/base.NsPerOp)
			if cur.NsPerOp > base.NsPerOp*checkTolerance {
				regressed = append(regressed, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%)",
					name, cur.NsPerOp, base.NsPerOp, 100*(cur.NsPerOp-base.NsPerOp)/base.NsPerOp))
			}
		}
		fmt.Println(line)
	}
	fmt.Fprintln(os.Stderr, "trajectory written to", *jsonPath)
	if *check && len(regressed) > 0 {
		return fmt.Errorf("bench -check: ns/op regressed more than %.0f%% vs frozen baseline:\n  %s",
			100*(checkTolerance-1), strings.Join(regressed, "\n  "))
	}
	return nil
}

func toEntry(r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		NsPerOp:     float64(r.NsPerOp()),
		InstrsPerOp: r.Extra["instrs/op"],
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
}
