package xlint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/isa"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

// straightSource returns a branch-free program of n seeded random ALU
// instructions over a16..a27, followed by ret: one basic block, the
// analyzer's worst case for per-instruction state storage, with the
// dead-write findings a stress kernel of this shape draws.
func straightSource(n int) string {
	ops := []string{"add", "sub", "and", "or", "xor", "min", "maxu"}
	rng := rand.New(rand.NewSource(1))
	reg := func() int { return 16 + rng.Intn(12) }
	var b strings.Builder
	b.WriteString("start:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    %s a%d, a%d, a%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
	}
	b.WriteString("    ret\n")
	return b.String()
}

// TestInterpretMemoryFollowsBlocks pins the analyzer's storage bound:
// one state per block plus one per 32 instructions, so a single long
// block costs tens of bytes per instruction, not a 1 KiB state each.
func TestInterpretMemoryFollowsBlocks(t *testing.T) {
	const n = 4096
	proc, prog, err := (&core.Workload{Name: "straight", Source: straightSource(n)}).Build(procgen.Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := xlint.BuildCFG(prog, proc.TIE)

	const runs = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cfg.Interpret(proc)
	}
	runtime.ReadMemStats(&after)
	perInstr := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(prog.Code))
	if perInstr >= 64 {
		t.Errorf("Interpret allocated %.0f B per instruction on a %d-instruction block, want < 64",
			perInstr, len(prog.Code))
	}
}

// readDigest hashes every read TestAbsResultConcurrentReaders compares:
// per pc, StateAt, then Check of an observation at each interval's low
// end (which must pass on a reached pc) and of one just above a
// register's interval; then EdgeOut per CFG edge.
func readDigest(t *testing.T, rep *xlint.Report) string {
	h := sha256.New()
	for pc := range rep.Prog.Code {
		st := rep.Abs.StateAt(pc)
		writeState(h, st)
		var regs [isa.NumRegs]uint32
		if st != nil {
			for r, itv := range st.R {
				regs[r] = uint32(itv.Lo)
			}
		}
		err := rep.Abs.Check(pc, &regs)
		if st != nil && err != nil {
			t.Errorf("pc %d: in-range observation rejected: %v", pc, err)
		}
		fmt.Fprintln(h, err)
		if r := pc % isa.NumRegs; st != nil && st.R[r].Hi < 1<<32-1 {
			regs[r] = uint32(st.R[r].Hi + 1)
			fmt.Fprintln(h, rep.Abs.Check(pc, &regs))
		}
	}
	for _, blk := range rep.CFG.Blocks {
		for i := range blk.Succs {
			writeState(h, rep.Abs.EdgeOut(blk.ID, i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAbsResultConcurrentReaders: an AbsResult is immutable, so
// goroutines sharing one (the daemon's lint sessions, WCEC next to a
// soundness probe) read exactly what a serial pass reads. Run under
// -race this also proves the replay writes only goroutine-local state.
func TestAbsResultConcurrentReaders(t *testing.T) {
	// tp01_alu_mix has a 50-instruction block (reads on both sides of
	// its checkpoint); rs_base has loops and 26 blocks.
	for _, name := range []string{"tp01_alu_mix", "rs_base"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		proc, prog, err := w.Build(procgen.Default())
		if err != nil {
			t.Fatal(err)
		}
		rep := xlint.Analyze(prog, proc)
		want := readDigest(t, rep)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := readDigest(t, rep); got != want {
					t.Errorf("%s: concurrent reads differ from the serial pass", name)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkLargePrograms measures the lint front end on large code
// bodies: assembly, the abstract interpreter alone, and the whole
// analysis, on the 5,616-instruction I-cache kernel and on a
// straight-line source of about 1 MB (the daemon's frame cap). Run with
// -benchmem: the bytes per op are the analyzer's memory bound.
func BenchmarkLargePrograms(b *testing.B) {
	tp13, ok := workloads.ByName("tp13_icache_big")
	if !ok {
		b.Fatal("no workload tp13_icache_big")
	}
	for _, c := range []struct{ name, src string }{
		{"tp13_icache_big", tp13.Source},
		{"straight_1MB", straightSource(45_000)},
	} {
		proc, prog, err := (&core.Workload{Name: c.name, Source: c.src}).Build(procgen.Default())
		if err != nil {
			b.Fatal(err)
		}
		a := asm.New(proc.TIE)
		b.Run("assemble/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Assemble(c.name, c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("interpret/"+c.name, func(b *testing.B) {
			cfg := xlint.BuildCFG(prog, proc.TIE)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Interpret(proc)
			}
		})
		b.Run("analyze/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xlint.Analyze(prog, proc)
			}
		})
	}
}
