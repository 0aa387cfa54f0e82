package iss

import (
	"context"
	"fmt"

	"xtenergy/internal/cache"
	"xtenergy/internal/isa"
	"xtenergy/internal/pipeline"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
)

// haltPC is the link-register sentinel: a RET (or JX) to this value halts
// the program. The simulator initializes a0 to it, so a top-level "ret"
// ends the run.
const haltPC = 0xFFFF_FFFF

// UncachedFetchPenalty is the stall, in cycles, charged per uncached
// instruction fetch (bus access instead of I-cache). Exported because the
// RTL reference power model needs to know how long the bus is busy.
const UncachedFetchPenalty = 6

// Options configures a simulation run.
type Options struct {
	// TraceSink, when non-nil, streams the execution trace: every
	// retired instruction of a run that halts is delivered, in order,
	// in batches of up to TraceBatchSize entries. A run that returns a
	// fault does not deliver its last partial batch, so the sink misses
	// up to TraceBatchSize-1 instructions retired before the fault, and
	// never sees the instruction at the fault's pc. The batch slice is
	// owned by the simulator and reused after the call returns, so a
	// sink that keeps entries beyond the call must copy them. Returning
	// a non-nil error aborts the run. The simulator keeps no trace of
	// its own, so its memory does not grow with run length.
	TraceSink func(batch []TraceEntry) error
	// MaxCycles aborts runaway programs; 0 means the default (200M).
	// Exceeding it raises a FaultWatchdog fault.
	MaxCycles uint64
	// InjectFault, when non-nil, is consulted before every retired
	// instruction with the upcoming pc and the current cycle count;
	// returning a non-nil fault aborts the run at that site (the
	// simulator fills in the program, pc, instruction, and cycle).
	// This is the seam the internal/chaos fault-injection harness
	// uses. Tests also use a hook that always returns nil to observe
	// each pc before it steps, the faulting one included. Leave nil in
	// production runs.
	InjectFault func(pc int, cycle uint64) *Fault
}

// TraceBatchSize is the number of retired instructions delivered per
// TraceSink call (the final batch may be shorter). The batch buffer is
// allocated once per Run, so the retire loop stays allocation-free.
const TraceBatchSize = 256

// DefaultMaxCycles is the watchdog limit when Options.MaxCycles is 0.
const DefaultMaxCycles = 200_000_000

// Result is the outcome of a simulation run.
type Result struct {
	// Stats are the macro-model execution statistics.
	Stats Stats
	// Regs is the final general register file.
	Regs [isa.NumRegs]uint32
	// TIE is the final custom state (nil when the processor has no
	// extension or no custom registers).
	TIE *tie.State
}

// Simulator executes XT32 programs on a generated processor instance.
// A Simulator is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	proc *procgen.Processor

	regs [isa.NumRegs]uint32
	tie  *tie.State
	// noTIE is the empty state custom semantics see when the extension
	// has no custom registers. It lives on the simulator so that a
	// custom instruction allocates nothing; execCustom zeroes it before
	// every call.
	noTIE tie.State

	// RAM: memBytes is the architectural size (Config.MemBytes), which
	// every bounds check and memory fault uses; mem materializes only a
	// zero-filled prefix of it. Bytes past len(mem) have never been
	// written and read as zero; a store or data segment past the prefix
	// grows it (see grow). len(mem) is always a multiple of memPage or
	// memBytes itself, so an aligned access never straddles its edge.
	memBytes int
	mem      []byte

	ic, dc *cache.Cache
	pipe   *pipeline.Model

	prog  *Program
	plan  *plan.Plan
	stats Stats

	// Streaming-trace state: sink is Options.TraceSink for the current
	// run; batch is the reusable fixed-size delivery buffer.
	sink  func(batch []TraceEntry) error
	batch []TraceEntry

	// entry is the scratch trace entry for the step in flight. It lives
	// on the simulator (not the step frame) because its address crosses
	// the indirect exec-table call, which would otherwise force a heap
	// allocation per retired instruction.
	entry TraceEntry

	// Zero-overhead loop state (the configurable loop option): when
	// loopActive and execution reaches loopEnd, control returns to
	// loopBegin until the count is exhausted — with no branch penalty.
	loopActive bool
	loopBegin  int
	loopEnd    int
	loopCount  uint32
}

// New returns a simulator for the given processor.
func New(p *procgen.Processor) *Simulator {
	s := &Simulator{
		proc:     p,
		memBytes: p.Config.MemBytes,
		ic:       cache.New(p.Config.ICache),
		dc:       cache.New(p.Config.DCache),
		pipe:     pipeline.New(),
	}
	if p.TIE.Ext != nil && p.TIE.Ext.NumCustomRegs > 0 {
		s.tie = tie.NewState(p.TIE.Ext.NumCustomRegs)
	}
	return s
}

// Run executes prog to completion and returns its statistics. It is
// RunContext without cancellation.
func (s *Simulator) Run(prog *Program, opts Options) (*Result, error) {
	return s.RunContext(context.Background(), prog, opts)
}

// RunContext executes prog to completion and returns its statistics.
//
// Every runtime failure — memory fault, illegal instruction, watchdog
// expiry, custom-instruction failure, cancellation — is returned as a
// *Fault carrying the faulting site, so callers can errors.As their way
// to the kind, pc, and cycle. Panics inside instruction execution are
// recovered into faults; the simulator never tears down the process.
// (Pre-flight image problems from Program.Validate remain plain errors:
// they describe a malformed image, not a run.)
//
// ctx is checked once per TraceBatchSize retired instructions — the
// same granularity at which trace batches are delivered — so the check
// adds O(1) overhead and cancellation is observed within one batch
// boundary. A cancelled run returns a FaultCancelled fault wrapping
// ctx.Err().
func (s *Simulator) RunContext(ctx context.Context, prog *Program, opts Options) (res *Result, err error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s.reset(prog)
	s.sink = opts.TraceSink
	if s.sink != nil {
		if s.batch == nil {
			s.batch = make([]TraceEntry, 0, TraceBatchSize)
		}
		s.batch = s.batch[:0]
	}
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}

	pc := prog.Entry
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, s.site(newFault(FaultPanic, "recovered: %v", r), pc)
		}
	}()

	// Cancellation is polled every TraceBatchSize retirements whether or
	// not a sink is attached, keeping the check off the per-instruction
	// path.
	untilCheck := 0

	for {
		if pc == len(prog.Code) {
			break // fell off the end: normal halt
		}
		if pc < 0 || pc > len(prog.Code) {
			f := newFault(FaultIllegalInstr, "pc %d out of range [0,%d]", pc, len(prog.Code))
			f.Prog, f.Cycle = prog.Name, s.stats.Cycles
			return nil, f
		}
		if s.stats.Cycles > maxCycles {
			return nil, s.site(newFault(FaultWatchdog, "exceeded %d cycles (runaway program?)", maxCycles), pc)
		}
		if untilCheck <= 0 {
			untilCheck = TraceBatchSize
			select {
			case <-ctx.Done():
				f := newFault(FaultCancelled, "run interrupted")
				f.Err = ctx.Err()
				return nil, s.site(f, pc)
			default:
			}
		}
		untilCheck--
		if opts.InjectFault != nil {
			if f := opts.InjectFault(pc, s.stats.Cycles); f != nil {
				f.PC = -1 // the injection point is the site, whatever the hook set
				return nil, s.site(f, pc)
			}
		}
		next, halt, err := s.step(pc)
		if err != nil {
			return nil, s.site(err, pc)
		}
		if halt {
			break
		}
		pc = next
	}

	if s.sink != nil && len(s.batch) > 0 {
		if err := s.sink(s.batch); err != nil {
			return nil, s.site(err, pc)
		}
		s.batch = s.batch[:0]
	}

	res = &Result{Stats: s.stats, Regs: s.regs}
	if s.tie != nil {
		res.TIE = s.tie.Clone()
	}
	return res, nil
}

// site attaches the faulting site to an error bubbling out of the run
// loop: a *Fault anywhere in the chain gets its program, pc,
// instruction, and cycle filled in (when not already set); any other
// error (e.g. a trace-sink failure) is wrapped with the site as text.
func (s *Simulator) site(err error, pc int) error {
	if f, ok := AsFault(err); ok {
		if f.Prog == "" {
			f.Prog = s.prog.Name
		}
		if f.PC < 0 {
			f.PC = pc
			if pc >= 0 && pc < len(s.prog.Code) {
				f.Instr = s.prog.Code[pc]
			}
			f.Cycle = s.stats.Cycles
		}
		if f == err {
			return f
		}
		return err
	}
	return fmt.Errorf("iss: %s at pc %d: %w", s.prog.Name, pc, err)
}

func (s *Simulator) reset(prog *Program) {
	s.prog = prog
	s.plan = prog.Plan(s.proc.TIE)
	s.regs = [isa.NumRegs]uint32{}
	s.regs[0] = haltPC // link register sentinel: top-level ret halts
	clear(s.mem)
	for _, seg := range prog.Data {
		// Bytes past the architectural size are dropped.
		if int64(seg.Addr) >= int64(s.memBytes) {
			continue
		}
		end := min(int(seg.Addr)+len(seg.Bytes), s.memBytes)
		if end > len(s.mem) {
			s.grow(end)
		}
		copy(s.mem[seg.Addr:end], seg.Bytes)
	}
	s.ic.Reset()
	s.dc.Reset()
	s.pipe.Reset()
	s.loopActive = false
	s.stats = Stats{}
	if n := s.proc.TIE.NumInstructions(); n > 0 {
		s.stats.CustomExec = make([]uint64, n)
	}
	if s.tie != nil {
		s.tie.Reset()
	}
}

// step retires the instruction at pc and returns the next pc. All
// static per-instruction metadata — register ports, hazard view, fetch
// address, branch targets, custom-instruction attributes — comes from
// the predecoded plan record; the loop only computes what depends on
// dynamic state.
//
//xtenergy:hotpath
func (s *Simulator) step(pc int) (next int, halt bool, err error) {
	rec := &s.plan.Recs[pc]
	in := rec.Instr

	te := &s.entry
	*te = TraceEntry{}
	cycles := 0

	// --- Fetch ---
	if rec.Uncached {
		s.stats.UncachedFetches++
		s.stats.StallCycles += UncachedFetchPenalty
		cycles += UncachedFetchPenalty
		te.Uncached = true
	} else {
		if !s.ic.Access(rec.FetchAddr) {
			s.stats.ICacheMisses++
			pen := s.ic.MissPenalty()
			s.stats.StallCycles += uint64(pen)
			cycles += pen
			te.ICMiss = true
		}
	}

	// --- Interlock detection ---
	stall := s.pipe.Interlock(rec.PUse)
	if stall > 0 {
		s.stats.Interlocks++
		s.stats.StallCycles += uint64(stall)
		cycles += stall
		te.Interlock = true
	}

	// --- Execute ---
	s.stats.Retired++
	s.stats.OpcodeExec[in.Op]++

	if in.IsCustom() {
		n, err := s.execCustom(rec, te)
		if err != nil {
			return 0, false, err
		}
		cycles += n
		if err := s.finishEntry(te, pc, in, cycles); err != nil {
			return 0, false, err
		}
		return s.loopBack(pc + 1), false, nil
	}

	// The operand registers are latched unconditionally, exactly as the
	// operand buses do: an out-of-range register encoding faults here,
	// before dispatch, for every base instruction.
	rs := s.regs[in.Rs]
	rt := s.regs[in.Rt]
	te.RsVal, te.RtVal = rs, rt

	fn := execTable[in.Op]
	if fn == nil {
		return 0, false, newFault(FaultIllegalInstr, "unimplemented opcode %s", in.Op.Name())
	}
	r, err := fn(s, rec, pc, rs, rt, te)
	if err != nil {
		return 0, false, err
	}
	cycles += r.cycles
	if err := s.finishEntry(te, pc, in, cycles); err != nil {
		return 0, false, err
	}
	if r.halt {
		return 0, true, nil
	}
	return s.loopBack(r.nextPC), false, nil
}

// loopBack applies the zero-overhead loop option: reaching the loop end
// redirects to the loop begin with no bubble (the hardware tracks the
// addresses in dedicated registers).
//
//xtenergy:hotpath
func (s *Simulator) loopBack(next int) int {
	if s.loopActive && next == s.loopEnd {
		if s.loopCount > 0 {
			s.loopCount--
			return s.loopBegin
		}
		s.loopActive = false
	}
	return next
}

// execCustom executes a TIE instruction and returns its cycle cost. The
// plan record carries the resolved instruction and its predecoded
// immediate; an unresolved record (undefined custom ID) re-queries the
// extension on the cold path so the fault wraps the original error.
func (s *Simulator) execCustom(rec *plan.Rec, te *TraceEntry) (int, error) {
	in := rec.Instr
	ci := rec.CI
	if ci == nil {
		_, err := s.proc.TIE.Instruction(in.CustomID)
		f := newFault(FaultIllegalInstr, "custom instruction not in extension")
		f.Err = err
		return 0, f
	}
	ops := tie.Operands{Rd: in.Rd, Rs: in.Rs, Rt: in.Rt, Imm: in.Imm}
	if ci.ImmOperand {
		// The Rt field carries a 6-bit signed constant decoded by the
		// generated immediate-generation logic (plan.DecodeImm6).
		ops.Imm = rec.SImm
	}
	if ci.ReadsGeneral {
		ops.RsVal = s.regs[in.Rs]
		if !ci.ImmOperand {
			ops.RtVal = s.regs[in.Rt]
		}
		te.RsVal, te.RtVal = ops.RsVal, ops.RtVal
	}
	st := s.tie
	if st == nil {
		s.noTIE = tie.State{}
		st = &s.noTIE
	}
	result, err := runSemantics(ci, st, ops)
	if err != nil {
		return 0, err
	}
	if ci.WritesGeneral {
		s.regs[in.Rd] = result
		te.Result = result
	}

	s.stats.CustomCycles += uint64(ci.Latency)
	s.stats.CustomExec[in.CustomID]++
	if ci.AccessesGeneralRegfile() {
		s.stats.CustomRegfileCycles += uint64(ci.Latency)
	}
	return ci.Latency, nil
}

// runSemantics executes a custom instruction's semantics with a panic
// guard: user-provided TIE semantics that panic surface as a custom-op
// fault instead of killing the process.
func runSemantics(ci *tie.Instruction, st *tie.State, ops tie.Operands) (v uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newFault(FaultCustomOp, "custom instruction %s panicked: %v", ci.Name, r)
		}
	}()
	return ci.Semantics(st, ops), nil
}

func (s *Simulator) finishEntry(te *TraceEntry, pc int, in isa.Instr, cycles int) error {
	s.stats.Cycles += uint64(cycles)
	if s.sink == nil {
		return nil
	}
	te.PC = int32(pc)
	te.Instr = in
	te.Cycles = uint32(cycles)
	s.batch = append(s.batch, *te)
	if len(s.batch) == cap(s.batch) {
		err := s.sink(s.batch)
		s.batch = s.batch[:0]
		if err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
	}
	return nil
}

// --- memory access helpers (little endian, bounds- and alignment-checked) ---

// memPage is the granularity of the materialized RAM prefix.
const memPage = 4 << 10

// grow materializes RAM up to at least byte n (n <= memBytes): the
// prefix doubles, or rounds n up to a page if that is larger, capped at
// the architectural size. The new bytes are zero.
func (s *Simulator) grow(n int) {
	size := min(max(2*len(s.mem), (n+memPage-1)&^(memPage-1)), s.memBytes)
	mem := make([]byte, size)
	copy(mem, s.mem)
	s.mem = mem
}

func (s *Simulator) load(addr uint32, size int) (uint32, error) {
	if err := s.checkMem(addr, size); err != nil {
		return 0, err
	}
	if int(addr) >= len(s.mem) {
		return 0, nil // past the materialized prefix: never written
	}
	switch size {
	case 1:
		return uint32(s.mem[addr]), nil
	case 2:
		return uint32(s.mem[addr]) | uint32(s.mem[addr+1])<<8, nil
	default:
		return uint32(s.mem[addr]) | uint32(s.mem[addr+1])<<8 |
			uint32(s.mem[addr+2])<<16 | uint32(s.mem[addr+3])<<24, nil
	}
}

func (s *Simulator) store(addr uint32, size int, v uint32) error {
	if err := s.checkMem(addr, size); err != nil {
		return err
	}
	if end := int(addr) + size; end > len(s.mem) {
		s.grow(end)
	}
	switch size {
	case 1:
		s.mem[addr] = byte(v)
	case 2:
		s.mem[addr] = byte(v)
		s.mem[addr+1] = byte(v >> 8)
	default:
		s.mem[addr] = byte(v)
		s.mem[addr+1] = byte(v >> 8)
		s.mem[addr+2] = byte(v >> 16)
		s.mem[addr+3] = byte(v >> 24)
	}
	return nil
}

func (s *Simulator) checkMem(addr uint32, size int) error {
	if addr%uint32(size) != 0 {
		f := newFault(FaultMem, "unaligned %d-byte access", size)
		f.Addr = addr
		return f
	}
	if uint64(addr)+uint64(size) > uint64(s.memBytes) {
		f := newFault(FaultMem, "access beyond %d-byte RAM", s.memBytes)
		f.Addr = addr
		return f
	}
	return nil
}

// ReadMem copies out sz bytes of simulated memory starting at addr (for
// tests inspecting program results).
//
//xtenergy:oracle TestAllRSConfigurationsAgree TestDrawlineRasterizesCorrectly
func (s *Simulator) ReadMem(addr uint32, sz int) ([]byte, error) {
	if err := s.checkMem(addr, 1); err != nil {
		return nil, err
	}
	if sz < 0 {
		return nil, fmt.Errorf("iss: negative read size %d at %#x", sz, addr)
	}
	if sz > s.memBytes-int(addr) {
		return nil, fmt.Errorf("iss: read of %d bytes at %#x beyond RAM", sz, addr)
	}
	out := make([]byte, sz)
	if int(addr) < len(s.mem) {
		copy(out, s.mem[addr:])
	}
	return out, nil
}

// ReadWord returns the 32-bit little-endian word at addr.
//
//xtenergy:oracle TestCRC32Correct TestGcdComputesCorrectly
func (s *Simulator) ReadWord(addr uint32) (uint32, error) {
	return s.load(addr, 4)
}
