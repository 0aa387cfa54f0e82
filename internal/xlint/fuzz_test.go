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
// picks names the instructions to delete: its top two bits count one
// to four deletions, and its 15-bit fields, lowest first, give their
// instruction indices modulo the program's length, so a deletion can
// land anywhere in the program. A few deletions leave about half the
// programs clean, so most inputs reach the ISS; deleting many at once
// would have xlint flag nearly every program and end the input before
// the run.
//
// The converse direction is intentionally unchecked: a maybe-uninit
// warning on a path the concrete input never takes is a correct
// over-approximation, not a bug.
func FuzzUninitDifferential(f *testing.F) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint64(0))                      // the scratch base movi gone
	f.Add(int64(2), uint64(1<<62|40<<15|8))         // a15's movi and instruction 40 gone
	f.Add(int64(3), uint64(2<<62|45<<30|29<<15|52)) // instructions 52, 29 and 45 gone
	f.Add(int64(-9), uint64(1<<62|30<<15|17))       // instructions 17 and 30 gone
	// Instruction 79 of 169, the third loop's movi a3, gone: a3 keeps
	// the second loop's final 0, so the loop runs until the watchdog.
	f.Add(int64(1), uint64(79))
	f.Fuzz(func(t *testing.T, seed int64, picks uint64) {
		prog := randprog.Generate(seed, randprog.Options{AllowLoops: true})
		for k := 0; k <= int(picks>>62); k++ {
			if i := int(picks>>(15*k)&(1<<15-1)) % len(prog.Code); prog.Code[i].Op != isa.OpRET {
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
			t.Fatalf("xlint passed seed=%d picks=%#x as fully initialized, but the ISS read uninitialized a%d at pc %d (run err: %v)",
				seed, picks, u.reads[0].reg, u.reads[0].pc, err)
		}
	})
}
