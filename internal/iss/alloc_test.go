package iss_test

import (
	"fmt"
	"runtime"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
	"xtenergy/internal/workloads"
)

// countdown returns a program that retires roughly (2+len(body))n+2
// instructions: body runs once per loop iteration.
func countdown(t *testing.T, a *asm.Assembler, n int, body string) *iss.Program {
	t.Helper()
	prog, err := a.Assemble("countdown", fmt.Sprintf(`
 movi a2, %d
 movi a3, 7
loop:
%s
 addi a2, a2, -1
 bnez a2, loop
 ret
`, n, body))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunSteadyStateAllocs pins the hot loop's allocation behavior: a
// run allocates a constant amount (the Result and first-run lazy state),
// independent of how many instructions retire. Every per-step structure
// — the plan record, the scratch trace entry, the exec dispatch, the
// state custom semantics see — is prebuilt or reused, so retiring 100x
// more instructions must not allocate a single extra object. The
// custom cases run a TIE instruction every iteration, on an extension
// without custom registers (des) and on one with them (mac).
func TestRunSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		ext  *tie.Extension
		body string
	}{
		{"base", nil, ""},
		{"custom-no-regs", workloads.DESExtension(), " dperm a4, a3, a2"},
		{"custom-regs", workloads.MACExtension(), " mac16 a0, a3, a2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proc, err := procgen.Generate(procgen.Default(), tc.ext)
			if err != nil {
				t.Fatal(err)
			}
			a := asm.New(proc.TIE)
			short := countdown(t, a, 1_000, tc.body)
			long := countdown(t, a, 100_000, tc.body)

			sim := iss.New(proc)
			run := func(p *iss.Program) func() {
				return func() {
					if _, err := sim.Run(p, iss.Options{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm up both programs so plan construction and lazy
			// simulator state are paid before measuring.
			run(short)()
			run(long)()

			allocsShort := testing.AllocsPerRun(10, run(short))
			allocsLong := testing.AllocsPerRun(10, run(long))
			if allocsShort != allocsLong {
				t.Errorf("allocations scale with run length: %.1f allocs for the short run vs %.1f for the 100x longer one", allocsShort, allocsLong)
			}
			// The constant is the Result allocation (plus a clone of
			// the custom registers); a handful is tolerable, a
			// per-step term is not.
			if allocsLong > 4 {
				t.Errorf("steady-state run allocates %.1f objects; want <= 4", allocsLong)
			}
		})
	}
}

// TestFreshRunAllocationBounded pins per-run memory to what the program
// touches: RAM is materialized on demand, so a fresh simulator running a
// small registry program allocates a few KiB of RAM, not the whole
// architectural size (1 MiB by default).
func TestFreshRunAllocationBounded(t *testing.T) {
	const limit = 64 << 10
	w := workloads.Gcd()
	proc, prog, err := w.Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := iss.New(proc).Run(prog, iss.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the program's cached plan

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
		t.Errorf("a fresh %s run allocates %d bytes; want <= %d", w.Name, per, limit)
	}
}
