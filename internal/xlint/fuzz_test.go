package xlint_test

import (
	"testing"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/randprog"
	"xtenergy/internal/xlint"
)

// FuzzUninitDifferential checks the soundness half of the
// initialization dataflow against the simulator: whenever xlint reports
// NO uninit-read finding (neither definite nor maybe), executing the
// program must never read a register that was not written first. The
// NOP mutation deletes instructions without moving any branch target,
// so knocking out prologue initializers manufactures exactly the
// uninitialized-read shapes the analysis has to catch.
//
// The converse direction is intentionally unchecked: a maybe-uninit
// warning on a path the concrete input never takes is a correct
// over-approximation, not a bug.
func FuzzUninitDifferential(f *testing.F) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint64(0))
	f.Add(int64(2), uint64(0x0000_0000_0001_fffe)) // every prologue movi gone
	f.Add(int64(3), uint64(0xaaaa_5555_00ff_1234))
	f.Add(int64(-9), uint64(1)<<17|uint64(1)<<30)
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		for i := range prog.Code {
			if i >= 64 {
				break
			}
			if mask&(uint64(1)<<i) != 0 && prog.Code[i].Op != isa.OpRET {
				prog.Code[i] = isa.Instr{Op: isa.OpNOP}
			}
		}
		rep := xlint.Analyze(prog, proc)
		for _, fd := range rep.Findings {
			if fd.Code == "uninit-read" {
				return // flagged: the guarantee is only for clean programs
			}
		}
		// xlint says every read is initialized on every path; the ISS must
		// agree on this path. Mutations can create runaway loops, so cap
		// cycles; the tracker has seen every instruction up to the
		// watchdog or fault that ends the run.
		u := newUninitTracker(proc, prog)
		_, err := iss.New(proc).Run(prog, iss.Options{InjectFault: u.observe, MaxCycles: 200_000})
		if len(u.reads) > 0 {
			t.Fatalf("xlint passed seed=%d mask=%#x as fully initialized, but the ISS read uninitialized a%d at pc %d (run err: %v)",
				seed, mask, u.reads[0].reg, u.reads[0].pc, err)
		}
	})
}
