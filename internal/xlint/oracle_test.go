package xlint_test

import (
	"testing"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
	"xtenergy/internal/xlint"
)

// The dynamic oracles the analyzer's soundness tests compare against.
// Both are built from what the ISS already reports: the trace sink and
// the fault-injection hook.

// haltSentinel is the value the ISS loads into a0 at reset, so that a
// top-level ret halts.
const haltSentinel = 0xFFFF_FFFF

// regShadow rebuilds the ISS's register file from the trace sink and
// checks it against the abstract interpreter: when an entry arrives,
// the shadow holds the registers its instruction ran with, so every
// value must lie in the interval Check gives for that pc. An
// instruction writes at most one general register: its Rd, with the
// entry's Result, when plan.RegUseOf reports an Rd write, or a0, with
// the return address, for CALL and CALLX. A run that faults does not
// flush its last partial batch, so the shadow checks only the
// instructions the sink received.
type regShadow struct {
	comp *tie.Compiled
	abs  *xlint.AbsResult
	regs [isa.NumRegs]uint32
	// violation is the first failed check; the sink returns it too,
	// which stops the run.
	violation error
}

func newRegShadow(proc *procgen.Processor, abs *xlint.AbsResult) *regShadow {
	s := &regShadow{comp: proc.TIE, abs: abs}
	s.regs[0] = haltSentinel
	return s
}

// sink is an iss.Options.TraceSink.
func (s *regShadow) sink(batch []iss.TraceEntry) error {
	for i := range batch {
		e := &batch[i]
		if err := s.abs.Check(int(e.PC), &s.regs); err != nil {
			s.violation = err
			return err
		}
		switch {
		case e.Instr.Op == isa.OpCALL || e.Instr.Op == isa.OpCALLX:
			s.regs[0] = uint32(e.PC) + 1
		case plan.RegUseOf(s.comp, e.Instr).WritesRd:
			s.regs[e.Instr.Rd] = e.Result
		}
	}
	return nil
}

// uninitRead is one read of a register that nothing wrote before it.
type uninitRead struct {
	pc, reg int
}

// uninitTracker records each read of a never-written register once per
// (pc, register), in the order they first happen; a0 counts as written
// from reset. Its observe method is an iss.Options.InjectFault hook
// that never injects: the ISS consults it before every instruction
// steps, the faulting one included, so a run cut short by a fault or
// the watchdog reports every read up to that point.
type uninitTracker struct {
	comp    *tie.Compiled
	code    []isa.Instr
	written uint64
	seen    map[int]uint64 // registers already reported, by pc
	reads   []uninitRead
}

func newUninitTracker(proc *procgen.Processor, prog *iss.Program) *uninitTracker {
	return &uninitTracker{comp: proc.TIE, code: prog.Code, written: 1 << 0, seen: map[int]uint64{}}
}

func (u *uninitTracker) observe(pc int, _ uint64) *iss.Fault {
	use := plan.RegUseOf(u.comp, u.code[pc])
	if unread := use.Reads &^ u.written &^ u.seen[pc]; unread != 0 {
		u.seen[pc] |= unread
		for r := 0; r < isa.NumRegs; r++ {
			if unread&(1<<r) != 0 {
				u.reads = append(u.reads, uninitRead{pc, r})
			}
		}
	}
	u.written |= use.Writes
	return nil
}

// TestRecordUninitReads pins the tracker FuzzUninitDifferential checks
// the initialization analysis against: reads of never-written registers
// are recorded once per (pc, register), a0 counts as written from
// reset, and a clean program records nothing.
func TestRecordUninitReads(t *testing.T) {
	run := func(src string) []uninitRead {
		t.Helper()
		_, proc, prog := analyzeAsm(t, src)
		u := newUninitTracker(proc, prog)
		if _, err := iss.New(proc).Run(prog, iss.Options{InjectFault: u.observe}); err != nil {
			t.Fatal(err)
		}
		return u.reads
	}

	// a3 is read before any write; a2 is written first. The add reads
	// both a2 (clean) and a3 (dirty) at pc 1.
	reads := run(`
    movi a2, 7
    add a1, a2, a3
    ret
`)
	if len(reads) != 1 || reads[0] != (uninitRead{pc: 1, reg: 3}) {
		t.Fatalf("reads = %v, want [{pc:1 reg:3}]", reads)
	}

	// The same pc re-executed in a loop reports the register once.
	reads = run(`
    movi a2, 3
loop:
    add a1, a1, a4
    addi a2, a2, -1
    bnez a2, loop
    ret
`)
	var hits int
	for _, ur := range reads {
		if ur.reg == 4 {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("a4 reported %d times, want 1 (dedup per pc,reg): %v", hits, reads)
	}
	// a1 is also read uninitialized by the add.
	if len(reads) != 2 {
		t.Fatalf("reads = %v, want a1 and a4", reads)
	}

	// ret reads a0, which reset initializes: a clean program records nothing.
	reads = run(`
    movi a2, 1
    add a1, a2, a2
    ret
`)
	if len(reads) != 0 {
		t.Fatalf("clean program recorded %v", reads)
	}
}
