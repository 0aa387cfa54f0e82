package profiler_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/profiler"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

var (
	modelOnce sync.Once
	model     *core.MacroModel
	modelErr  error
)

func sharedModel(t *testing.T) *core.MacroModel {
	t.Helper()
	modelOnce.Do(func() {
		cr, err := core.Characterize(context.Background(), procgen.Default(), rtlpower.FastTechnology(),
			workloads.CharacterizationSuite(), core.Options{})
		if err != nil {
			modelErr = err
			return
		}
		model = cr.Model
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func profileWorkload(t *testing.T, name string) (*profiler.Report, core.Estimate) {
	t.Helper()
	m := sharedModel(t)
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := profiler.Profile(context.Background(), m, proc, prog)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateWorkload(procgen.Default(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rep, est
}

// The profiler's attribution must be exact: line energies sum to the
// macro-model's whole-program estimate, for base-only and
// custom-instruction workloads alike.
func TestAttributionSumsToEstimate(t *testing.T) {
	for _, name := range []string{"rs_base", "des", "accumulate", "rs_gffold"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, est := profileWorkload(t, name)
			if math.Abs(rep.TotalPJ-est.EnergyPJ) > 1e-6*est.EnergyPJ {
				t.Fatalf("profile total %.3f pJ != estimate %.3f pJ", rep.TotalPJ, est.EnergyPJ)
			}
			if rep.Cycles != est.Cycles {
				t.Fatalf("profile cycles %d != estimate %d", rep.Cycles, est.Cycles)
			}
			var sum float64
			for _, ln := range rep.Lines {
				sum += ln.EnergyPJ
			}
			if math.Abs(sum-rep.TotalPJ) > 1e-9*rep.TotalPJ {
				t.Fatal("line energies do not sum to total")
			}
		})
	}
}

func TestRegionsCoverAndRank(t *testing.T) {
	rep, _ := profileWorkload(t, "gcd")
	if len(rep.Regions) < 3 {
		t.Fatalf("only %d regions", len(rep.Regions))
	}
	var pct, pj float64
	for i, r := range rep.Regions {
		pct += r.Percent
		pj += r.EnergyPJ
		if i > 0 && r.EnergyPJ > rep.Regions[i-1].EnergyPJ {
			t.Fatal("regions not sorted by energy")
		}
		if r.StartPC >= r.EndPC {
			t.Fatalf("malformed region %+v", r)
		}
	}
	if math.Abs(pct-100) > 0.01 {
		t.Fatalf("region shares sum to %.2f%%", pct)
	}
	if math.Abs(pj-rep.TotalPJ) > 1e-9*rep.TotalPJ {
		t.Fatal("region energies do not sum to total")
	}
	// The GCD inner loop must dominate.
	top := rep.Regions[0].Label
	if !strings.Contains(top, "g_") && !strings.Contains(top, "start") {
		t.Fatalf("unexpected hottest region %q", top)
	}
}

func TestHotLines(t *testing.T) {
	rep, _ := profileWorkload(t, "bubsort")
	text := rep.FormatHotLines(5)
	if !strings.Contains(text, "hottest 5 instructions") {
		t.Fatalf("hot lines malformed:\n%s", text)
	}
	// The inner-loop loads should be among the hottest.
	if !strings.Contains(text, "l32i") {
		t.Fatalf("expected inner-loop loads among hot lines:\n%s", text)
	}
	if !strings.Contains(rep.FormatRegions(), "energy by code region") {
		t.Fatal("region format malformed")
	}
}

func TestProfileErrors(t *testing.T) {
	m := sharedModel(t)
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := countdown(t, proc, 10)
	ctx := context.Background()
	if _, _, err := profiler.Profile(ctx, nil, proc, prog); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, _, err := profiler.Profile(ctx, m, proc, &iss.Program{}); err == nil {
		t.Fatal("empty program accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, _, err = profiler.Profile(cancelled, m, proc, prog)
	if f, ok := iss.AsFault(err); !ok || f.Kind != iss.FaultCancelled {
		t.Fatalf("cancelled run: %v, want a cancelled fault", err)
	}
}

// countdown assembles a program that retires about 2n+2 instructions.
func countdown(t *testing.T, proc *procgen.Processor, n int) *iss.Program {
	t.Helper()
	prog, err := asm.New(proc.TIE).Assemble("countdown", fmt.Sprintf(`
 movi a2, %d
loop:
 addi a2, a2, -1
 bnez a2, loop
 ret
`, n))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestProfileMemoryFollowsProgram pins the streamed profile: a run 100
// times longer allocates the same bytes, within 64 KiB, because each
// entry is priced as it streams past instead of being kept.
func TestProfileMemoryFollowsProgram(t *testing.T) {
	const slack = 64 << 10
	m := sharedModel(t)
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(n int) uint64 {
		prog := countdown(t, proc, n)
		profile := func() {
			if _, _, err := profiler.Profile(context.Background(), m, proc, prog); err != nil {
				t.Fatal(err)
			}
		}
		profile() // builds the program's cached plan
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		profile()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := allocated(1_000), allocated(100_000)
	t.Logf("Profile allocates %d bytes on ~2k instructions, %d on ~200k", short, long)
	if long > short+slack || short > long+slack {
		t.Errorf("Profile allocation follows run length: %d bytes on ~2k instructions, %d on ~200k", short, long)
	}
}
