package engine

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/memo"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

func testSpec(t *testing.T, name string) EstimateSpec {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not in registry", name)
	}
	return EstimateSpec{
		Workload: w,
		Config:   procgen.Default(),
		Tech:     rtlpower.FastTechnology(),
	}
}

func newEngine(t *testing.T, o Options) *Engine {
	t.Helper()
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimateColdWarmByteIdentity(t *testing.T) {
	e := newEngine(t, Options{})
	var computes atomic.Int64
	e.onCompute = func(string) { computes.Add(1) }

	spec := testSpec(t, "accumulate")
	spec.ProfileWindow = 400
	cold, out, err := e.Estimate(context.Background(), spec)
	if err != nil || out != memo.OutcomeMiss {
		t.Fatalf("cold Estimate: outcome %v, err %v", out, err)
	}
	warm, out, err := e.Estimate(context.Background(), spec)
	if err != nil || out != memo.OutcomeMemHit {
		t.Fatalf("warm Estimate: outcome %v, err %v", out, err)
	}
	if got, want := warm.Render(), cold.Render(); got != want {
		t.Fatalf("warm render differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}
	if cold.Render() == "" || cold.Cycles == 0 {
		t.Fatalf("implausible artifact: %+v", cold)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times, want 1", n)
	}
}

func TestNoCacheForcesRecompute(t *testing.T) {
	e := newEngine(t, Options{})
	var computes atomic.Int64
	e.onCompute = func(string) { computes.Add(1) }

	spec := testSpec(t, "accumulate")
	cold, _, err := e.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.NoCache = true
	again, out, err := e.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out != memo.OutcomeBypass {
		t.Fatalf("NoCache outcome = %v, want bypass", out)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (NoCache must recompute)", n)
	}
	if again.Render() != cold.Render() {
		t.Fatal("recomputed render differs from cached render")
	}
	// NoCache neither reads nor writes: the cached artifact is intact.
	spec.NoCache = false
	if _, out, err := e.Estimate(context.Background(), spec); err != nil || out != memo.OutcomeMemHit {
		t.Fatalf("after NoCache: %v, %v", out, err)
	}
}

func TestThunderingHerd(t *testing.T) {
	e := newEngine(t, Options{})
	var computes atomic.Int64
	e.onCompute = func(string) { computes.Add(1) }

	spec := testSpec(t, "gcd")
	const n = 16
	var wg sync.WaitGroup
	renders := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := e.Estimate(context.Background(), spec)
			if err != nil {
				errs[i] = err
				return
			}
			renders[i] = a.Render()
		}(i)
	}
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("herd of %d identical requests ran the pipeline %d times, want exactly 1", n, got)
	}
	for i := range renders {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if renders[i] != renders[0] {
			t.Fatalf("request %d rendered differently", i)
		}
	}
	c := e.Counters()
	if c.Misses != 1 {
		t.Fatalf("misses = %d, want 1", c.Misses)
	}
	if c.Coalesced+c.MemHits != n-1 {
		t.Fatalf("coalesced %d + mem hits %d != %d", c.Coalesced, c.MemHits, n-1)
	}
}

// artifactFiles lists the .art entries under the store root.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".art" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorruptDiskArtifactRecomputes(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, Options{Dir: dir})
	spec := testSpec(t, "gcd")
	cold, _, err := e.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store holds %d artifacts, want 1", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x20
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same directory (same process, same binary
	// fingerprint → same digest) must count the corruption, recompute,
	// and answer identically. memo's TestCorruptEntriesRecompute pins
	// the fault's kind.
	e2 := newEngine(t, Options{Dir: dir})
	again, out, err := e2.Estimate(context.Background(), spec)
	if err != nil || out != memo.OutcomeMiss {
		t.Fatalf("post-corruption Estimate: %v, %v", out, err)
	}
	if again.Render() != cold.Render() {
		t.Fatal("recomputed render differs from the original")
	}
	if c := e2.Counters(); c.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", c.Corrupt)
	}

	// The recompute rewrote the entry: a third engine hits disk clean.
	e3 := newEngine(t, Options{Dir: dir})
	if _, out, err := e3.Estimate(context.Background(), spec); err != nil || out != memo.OutcomeDiskHit {
		t.Fatalf("rewritten entry: %v, %v", out, err)
	}
}

func TestSimulateColdWarm(t *testing.T) {
	e := newEngine(t, Options{})
	w, _ := workloads.ByName("gcd")
	spec := SimulateSpec{Workload: w, Config: procgen.Default()}
	cold, out, err := e.Simulate(context.Background(), spec)
	if err != nil || out != memo.OutcomeMiss {
		t.Fatalf("cold: %v, %v", out, err)
	}
	warm, out, err := e.Simulate(context.Background(), spec)
	if err != nil || out != memo.OutcomeMemHit {
		t.Fatalf("warm: %v, %v", out, err)
	}
	for _, vars := range []bool{false, true} {
		if warm.Render(vars) != cold.Render(vars) {
			t.Fatalf("render(vars=%v) differs warm vs cold", vars)
		}
	}
	if cold.Stats.Cycles == 0 || cold.Instructions == 0 {
		t.Fatalf("implausible artifact: %+v", cold)
	}
}

func TestLintColdWarm(t *testing.T) {
	e := newEngine(t, Options{})
	w, _ := workloads.ByName("rs_gffold")
	spec := LintSpec{Workload: w, Config: procgen.Default()}
	cold, out, err := e.Lint(context.Background(), spec)
	if err != nil || out != memo.OutcomeMiss {
		t.Fatalf("cold: %v, %v", out, err)
	}
	warm, out, err := e.Lint(context.Background(), spec)
	if err != nil || out != memo.OutcomeMemHit {
		t.Fatalf("warm: %v, %v", out, err)
	}
	for _, notes := range []bool{false, true} {
		cr, cd := cold.Render(notes)
		wr, wd := warm.Render(notes)
		if cr != wr || cd != wd {
			t.Fatalf("render(notes=%v) differs warm vs cold", notes)
		}
	}
	// Disable codes are part of the identity: a disabled analysis is a
	// different request.
	spec.Disable = []string{"interlock"}
	if _, out, err := e.Lint(context.Background(), spec); err != nil || out != memo.OutcomeMiss {
		t.Fatalf("disabled-code request reused the undisabled artifact: %v, %v", out, err)
	}
}

func TestCharacterizeCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization in -short mode")
	}
	e := newEngine(t, Options{})
	var computes atomic.Int64
	e.onCompute = func(string) { computes.Add(1) }
	spec := CharacterizeSpec{
		Config:    procgen.Default(),
		Tech:      rtlpower.FastTechnology(),
		Workloads: workloads.CharacterizationSuite(),
	}
	cold, out, err := e.Characterize(context.Background(), spec)
	if err != nil || out != memo.OutcomeMiss {
		t.Fatalf("cold: %v, %v", out, err)
	}
	warm, out, err := e.Characterize(context.Background(), spec)
	if err != nil || out != memo.OutcomeMemHit {
		t.Fatalf("warm: %v, %v", out, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("characterized %d times, want 1", n)
	}
	if warm.Model.Coef != cold.Model.Coef || warm.Model.CoefStdErr != cold.Model.CoefStdErr {
		t.Fatal("restored model coefficients differ")
	}
	if warm.Model.Fit == nil || warm.Model.Fit.R2 != cold.Model.Fit.R2 ||
		warm.Model.Fit.CondEstimate != cold.Model.Fit.CondEstimate {
		t.Fatal("restored fit diagnostics differ")
	}
	if len(warm.Observations) != len(cold.Observations) {
		t.Fatal("observation count differs")
	}
	for i := range warm.Observations {
		if warm.Observations[i] != cold.Observations[i] {
			t.Fatalf("observation %d differs after round-trip", i)
		}
	}

	// Partial runs are not deterministic functions of the request and
	// must bypass the store.
	spec.Opts.Partial = true
	if _, out, err := e.Characterize(context.Background(), spec); err != nil || out != memo.OutcomeBypass {
		t.Fatalf("partial run: %v, %v", out, err)
	}
}

// straightSource returns a branch-free program of n seeded random ALU
// instructions over a16..a27, followed by ret.
func straightSource(seed int64, n int) string {
	ops := []string{"add", "sub", "and", "or", "xor", "min", "maxu"}
	rng := rand.New(rand.NewSource(seed))
	reg := func() int { return 16 + rng.Intn(12) }
	var b strings.Builder
	b.WriteString("start:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    %s a%d, a%d, a%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
	}
	b.WriteString("    ret\n")
	return b.String()
}

// liveHeap is the heap the last completed GC cycle found reachable,
// read after forcing two cycles so sync.Pool victims are gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestEngineKeepsNoBuilds pins what an engine retains between requests:
// nothing of a miss's build. NoCache keeps the memo tier out of the
// measurement, so once the misses return, their processors, programs
// and plans must all be garbage.
func TestEngineKeepsNoBuilds(t *testing.T) {
	const (
		misses = 80
		instrs = 2000
		slack  = 2 << 20
	)
	e := newEngine(t, Options{})
	before := liveHeap()
	for i := 0; i < misses; i++ {
		w := core.Workload{Name: fmt.Sprintf("straight%d", i), Source: straightSource(int64(i), instrs)}
		a, out, err := e.Simulate(context.Background(), SimulateSpec{Workload: w, Config: procgen.Default(), NoCache: true})
		if err != nil || out != memo.OutcomeBypass {
			t.Fatalf("miss %d: %v, %v", i, out, err)
		}
		if a.Instructions != instrs+1 {
			t.Fatalf("miss %d ran %d instructions, want %d", i, a.Instructions, instrs+1)
		}
	}
	grew := liveHeap() - before
	runtime.KeepAlive(e)
	t.Logf("live heap %+.2f MB after %d misses", float64(grew)/(1<<20), misses)
	if grew > slack {
		t.Fatalf("live heap grew by more than %d MB over %d NoCache misses of %d instructions",
			slack>>20, misses, instrs)
	}
}
