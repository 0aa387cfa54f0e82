package rtlpower

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
)

// StreamEstimator is the incremental form of the reference estimator:
// instead of walking a materialized []iss.TraceEntry, it consumes the
// execution trace batch by batch as the ISS retires instructions
// (iss.Options.TraceSink) and carries the per-block energy accumulators,
// the previous-entry switching state, and the xorshift toggle-RNG state
// across calls. For the same technology seed and the same entry
// sequence it produces a Report bit-identical to EstimateTrace, in O(1)
// memory regardless of how many instructions are consumed.
//
// Internally each consumed chunk is compiled into a draw schedule —
// the per-block segments of toggle-RNG draws an entry implies are a
// pure function of the trace entry and its plan record — and the
// schedule's one serial draw chain is then counted by jump-ahead lanes
// (see lanes.go and jump.go) instead of one latency-bound xorshift
// recurrence — 8, 16, or 64 lanes wide depending on the estimator's
// kernel tier (see kernel.go). The lanes enumerate exactly the states the
// sequential walk would, toggle counts are integers, and the energy
// fold replays the float operations in the sequential order, so
// reports, per-block energies, and per-entry (OnEntry) energies are
// bit-identical to the sequential path.
//
// A StreamEstimator is a single estimation pass: Consume any number of
// batches in retirement order, then Finish once. It is not safe for
// concurrent use; obtain one per run via Estimator.Stream.
type StreamEstimator struct {
	e *Estimator

	// OnEntry, if non-nil, is invoked after each consumed instruction
	// with its zero-based trace index, its cycle count and its energy.
	// Used by the windowed power profile; leave nil otherwise.
	OnEntry func(idx int, cycles uint64, pj float64)

	rng      uint32
	perBlock []float64
	activity []int // active cycles per block for the current instruction
	cycles   uint64
	entries  uint64
	prev     iss.TraceEntry
	havePrev bool

	// pl is the predecoded plan of the program being streamed, attached
	// by RunStreamed; entries are priced from its records. When nil (or
	// when an entry no longer matches its record), the entry falls
	// back to the estimator's Describe cache.
	pl *plan.Plan

	icPen, dcPen int

	thrIdle   uint32 // toggle threshold of the idle process, fixed per pass
	totalNets uint64 // Σ nets over all blocks: draws per simulated cycle
	kernel    Kernel // walker tier, copied from the estimator
	sched     *schedule
	forceSeq  bool // tests: pin the sequential reference path
}

// Stream starts a fresh incremental estimation pass.
func (e *Estimator) Stream() *StreamEstimator {
	var totalNets uint64
	for i := range e.blocks {
		totalNets += uint64(e.blocks[i].nets)
	}
	return &StreamEstimator{
		e:         e,
		rng:       e.tech.Seed | 1,
		perBlock:  make([]float64, len(e.blocks)),
		activity:  make([]int, len(e.blocks)),
		icPen:     e.proc.Config.ICache.MissPenalty,
		dcPen:     e.proc.Config.DCache.MissPenalty,
		thrIdle:   toggleThreshold(pIdle),
		totalNets: totalNets,
		kernel:    e.kernel,
	}
}

// Lane-kernel sizing. Every block draws exactly cyc draws per net each
// entry (active + idle split), so a chunk's draw total is
// Σcycles × Σnets — known before any state is mutated.
const (
	// laneMinDraws is the chunk size below which stripe clipping and
	// jump-ahead setup cost more than scalar drawing.
	laneMinDraws = 4096
	// maxChunkDraws caps the lane path: lane records and counts are
	// 32-bit, and exhausted-lane sentinels must stay above any live
	// remainder (see sentinelRem). Chunks past the cap — hundreds of
	// millions of draws in 256 entries, i.e. pathological per-entry
	// cycle counts — take the sequential path instead.
	maxChunkDraws = 1 << 30
)

// toggleThreshold maps a toggle probability to the strict upper bound
// its draws are compared against. This is the one conversion both the
// sequential and the lane paths must share bit-for-bit.
func toggleThreshold(p float64) uint32 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return uint32(p * float64(1<<32-1))
}

// segRec is one compiled draw segment. The three fields live in a
// single struct so the chunk compiler's hot append and the clip loop's
// reads touch one cache line per segment instead of three parallel
// arrays.
type segRec struct {
	thr   uint32 // toggle threshold
	draws uint32 // number of RNG draws, ≥ 1
	bk    uint32 // block index << 1, low bit set when idle
}

// schedule is the reusable per-chunk compilation of trace entries into
// toggle-draw segments, plus the lane-walk scratch built from them.
// Buffers are sized by the first chunk, grown only by a wider one, and
// reused; schedules themselves are pooled (schedPool) across estimation
// passes, so both Consume in the steady state and fresh
// StreamEstimators after warm-up allocate nothing.
type schedule struct {
	segs   []segRec // compiled draw segments, in sequential fold order
	counts []uint32 // per segment: toggle count, filled by the kernel
	entEnd []int32  // per entry: one-past-last segment index
	entCyc []uint32 // per entry: charged cycles
	total  uint64   // chunk draw total

	recs       []laneRec
	laneEnd    []int32
	laneStates []uint32
	walk8      walk8
	walk16     walk16
	walk64     walk64
}

// schedPool recycles schedule scratch across StreamEstimators. A
// schedule's buffers follow the widest chunk it has compiled: about
// 170 KB for a 256-entry streamed batch on the default processor's 12
// blocks, four times that after a 1024-entry chunk of a materialized
// trace. Before pooling, every fresh pass re-allocated them on its
// first chunk — the BENCH_iss.json reference_streamed alloc regression
// (29 → 39 allocs/op), which git history places at the jump-ahead lane
// kernel (PR 5), not the memo engine.
var schedPool = sync.Pool{New: func() any { return new(schedule) }}

func (sc *schedule) begin(nentries, nblocks int) {
	// Size for the chunk being compiled — an entry emits at most one
	// active and one idle segment per block — and only grow: a pooled
	// schedule keeps the capacity of the largest chunk it has compiled.
	if segCap := nentries * 2 * nblocks; cap(sc.segs) < segCap {
		sc.segs = make([]segRec, 0, segCap)
		sc.counts = make([]uint32, 0, segCap)
		sc.recs = make([]laneRec, 0, segCap+maxWalkLanes)
	}
	if cap(sc.entEnd) < nentries {
		sc.entEnd = make([]int32, 0, nentries)
		sc.entCyc = make([]uint32, 0, nentries)
	}
	sc.segs = sc.segs[:0]
	sc.entEnd = sc.entEnd[:0]
	sc.entCyc = sc.entCyc[:0]
	sc.total = 0
}

// maxWalkLanes sizes width-independent scratch for the widest tier.
const maxWalkLanes = 64

// maxConsumeEntries is the largest chunk Consume compiles at once.
// Bigger chunks amortize the per-chunk fixed costs (jump-ahead lane
// seeding, schedule reset) over more draws; chunk boundaries never
// affect the result, so materialized traces are chunked wider than the
// streaming batch size.
const maxConsumeEntries = 4 * iss.TraceBatchSize

// Consume folds a batch of retired instructions into the estimate. The
// batch slice may be reused by the caller after Consume returns; after
// the first call's buffer warm-up it allocates nothing.
func (s *StreamEstimator) Consume(batch []iss.TraceEntry) error {
	for len(batch) > 0 {
		n := len(batch)
		if n > maxConsumeEntries {
			n = maxConsumeEntries
		}
		if err := s.consumeChunk(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// consumeChunk estimates up to one batch worth of entries through the
// three-phase pipeline: compile the entries into a draw schedule,
// count toggles with the jump-ahead lane kernel, then fold the counts
// into energies in the sequential order. Chunks too small or too large
// for 32-bit lane arithmetic fall back to the sequential reference
// path, which is bit-identical by construction.
func (s *StreamEstimator) consumeChunk(chunk []iss.TraceEntry) error {
	var sumCyc uint64
	for i := range chunk {
		c := uint64(chunk[i].Cycles)
		if c == 0 {
			c = 1
		}
		sumCyc += c
	}
	if s.forceSeq || sumCyc*s.totalNets > maxChunkDraws {
		// A wide chunk over the 32-bit draw cap is split, not
		// sequentialized: only a minimal chunk that still exceeds the
		// cap (pathological per-entry cycle counts) walks the scalar
		// reference path. Either way the result is bit-identical.
		if !s.forceSeq && len(chunk) > iss.TraceBatchSize {
			half := len(chunk) / 2
			if err := s.consumeChunk(chunk[:half]); err != nil {
				return err
			}
			return s.consumeChunk(chunk[half:])
		}
		for i := range chunk {
			if err := s.consumeEntrySeq(&chunk[i]); err != nil {
				return err
			}
		}
		return nil
	}

	sc := s.sched
	if sc == nil {
		sc = schedPool.Get().(*schedule)
		s.sched = sc
	}
	sc.begin(len(chunk), len(s.e.blocks))
	var (
		fault      error
		faultEntry *iss.TraceEntry
	)
	ne := 0
	for i := range chunk {
		te := &chunk[i]
		cyc, pAct, err := s.prepEntry(te)
		if err != nil {
			fault, faultEntry = err, te
			break
		}
		s.emitSegments(sc, cyc, pAct)
		ne++
	}

	if sc.total > 0 {
		if sc.total >= laneMinDraws {
			s.countChunkLanes(sc)
		} else {
			s.countChunkSeq(sc)
		}
	}
	s.foldChunk(sc, ne)

	if fault != nil {
		return s.wrapEntryFault(faultEntry, s.entries, fault)
	}
	return nil
}

// recFor returns the plan record describing te's instruction: the
// prebuilt record when the entry still matches the attached plan, or a
// description served from the estimator's direct-mapped cache otherwise
// (no plan attached, or a trace altered by a fault-injection harness —
// the entry's own instruction stays authoritative). Allocates nothing
// after the cache warms up.
func (s *StreamEstimator) recFor(te *iss.TraceEntry) *plan.Rec {
	if s.pl != nil {
		if r := s.pl.Rec(int(te.PC)); r != nil && r.Instr == te.Instr {
			return r
		}
	}
	e := s.e
	if e.desc == nil {
		e.desc = make([]descEntry, descCacheSize)
	}
	de := &e.desc[descIndex(te.Instr)]
	if !de.used || de.rec.Instr != te.Instr {
		de.rec = plan.Describe(e.proc.TIE, te.Instr)
		de.used = true
	}
	return &de.rec
}

// wrapEntryFault converts an entry-level estimation failure into a
// typed fault naming the offending entry — its zero-based global trace
// index and program counter — so chaos and partial-fit failure logs can
// point at the exact retired instruction instead of an anonymous error.
func (s *StreamEstimator) wrapEntryFault(te *iss.TraceEntry, idx uint64, err error) error {
	return &iss.Fault{
		Kind:  iss.FaultIllegalInstr,
		PC:    int(te.PC),
		Instr: te.Instr,
		Msg:   fmt.Sprintf("stream estimator: trace entry %d", idx),
		Err:   err,
	}
}

// prepEntry advances the per-entry sequential state (cycle total,
// switching history) and fills s.activity with the entry's per-block
// active cycle counts. It is the shared front half of the sequential
// and scheduled paths; both must charge blocks identically.
func (s *StreamEstimator) prepEntry(te *iss.TraceEntry) (cyc int, pAct float64, err error) {
	e := s.e
	idx := e.kindIdx

	cyc = int(te.Cycles)
	if cyc <= 0 {
		cyc = 1
	}
	s.cycles += uint64(cyc)

	// Data switching activity on the operand/result buses relative
	// to the previous instruction: the data-dependent term a linear
	// macro-model cannot see.
	sw := 0.5
	if s.havePrev {
		h := bits.OnesCount32(te.RsVal^s.prev.RsVal) +
			bits.OnesCount32(te.RtVal^s.prev.RtVal) +
			bits.OnesCount32(te.Result^s.prev.Result)
		sw = float64(h) / 96
	}
	s.prev = *te
	s.havePrev = true

	for i := range s.activity {
		s.activity[i] = 0
	}
	activity := s.activity

	rec := s.recFor(te)
	in := rec.Instr
	d := rec.Def

	// Always-on blocks.
	activity[idx[procgen.BlockClock]] = cyc
	activity[idx[procgen.BlockPipeCtl]] = cyc
	activity[idx[procgen.BlockFetch]] = cyc
	activity[idx[procgen.BlockDecode]] = 1

	// Front end.
	if te.Uncached {
		activity[idx[procgen.BlockBus]] += iss.UncachedFetchPenalty
	} else {
		a := 1
		if te.ICMiss {
			a += s.icPen
			activity[idx[procgen.BlockBus]] += s.icPen
		}
		activity[idx[procgen.BlockICache]] = a
	}

	// Register file.
	if rec.RegfileActive {
		activity[idx[procgen.BlockRegfile]] = 1
	}

	// Execution units and memory pipeline.
	switch {
	case in.IsCustom():
		ci := rec.CI
		if ci == nil {
			// Cold path: re-query the extension so callers get the
			// original undefined-instruction error as the cause.
			_, qerr := e.proc.TIE.Instruction(in.CustomID)
			return 0, 0, qerr
		}
		for _, ci2 := range rec.Active {
			activity[e.proc.CustomBlockBase+ci2] += ci.Latency
		}
	case rec.IsMult:
		if mi := idx[procgen.BlockMult]; mi >= 0 {
			activity[mi] = d.Cycles
		} else {
			activity[idx[procgen.BlockALU]] = d.Cycles
		}
	case rec.IsShift:
		activity[idx[procgen.BlockShifter]] = 1
	case d.Class == isa.ClassArith:
		activity[idx[procgen.BlockALU]] = d.Cycles
	case d.Class == isa.ClassBranch:
		activity[idx[procgen.BlockALU]] = 1
	case d.Class == isa.ClassLoad || d.Class == isa.ClassStore:
		a := 1
		if te.DCMiss {
			a += s.dcPen
			activity[idx[procgen.BlockBus]] += s.dcPen
		}
		activity[idx[procgen.BlockLSU]] = a
		activity[idx[procgen.BlockDCache]] = a
	}

	// Base-to-custom side effect: custom hardware latched off the
	// shared operand buses switches when base arithmetic drives them
	// (paper Fig. 1 Example 1).
	if !in.IsCustom() && d.Class == isa.ClassArith {
		for _, ci2 := range e.proc.TIE.BusTapped {
			activity[e.proc.CustomBlockBase+ci2]++
		}
	}

	pAct = pActiveNominal * (1 + float64(e.tech.SwitchingWeight*(2*sw-1)))
	return cyc, pAct, nil
}

// emitSegments compiles one prepped entry into draw segments, in the
// exact block and active-before-idle order the sequential path
// simulates them.
//
//xtenergy:hotpath
func (s *StreamEstimator) emitSegments(sc *schedule, cyc int, pAct float64) {
	thrA := toggleThreshold(pAct)
	thrI := s.thrIdle
	segs := sc.segs
	total := sc.total
	activity := s.activity
	blocks := s.e.blocks
	for bi := range blocks {
		nets := blocks[bi].nets
		act := activity[bi]
		if act > cyc {
			act = cyc
		}
		if act > 0 {
			d := uint32(act * nets)
			segs = append(segs, segRec{thr: thrA, draws: d, bk: uint32(bi) << 1})
			total += uint64(d)
		}
		if idle := cyc - act; idle > 0 {
			d := uint32(idle * nets)
			segs = append(segs, segRec{thr: thrI, draws: d, bk: uint32(bi)<<1 | 1})
			total += uint64(d)
		}
	}
	sc.segs = segs
	sc.total = total
	sc.entEnd = append(sc.entEnd, int32(len(segs)))
	sc.entCyc = append(sc.entCyc, uint32(cyc))
}

// countChunkSeq counts a small chunk's schedule with the plain scalar
// chain — the same walk simulateNets performs, minus the float fold.
//
//xtenergy:hotpath
func (s *StreamEstimator) countChunkSeq(sc *schedule) {
	st := s.rng
	sc.counts = sc.counts[:len(sc.segs)]
	for i := range sc.segs {
		thr := sc.segs[i].thr
		n := sc.segs[i].draws
		c := uint32(0)
		for k := uint32(0); k < n; k++ {
			st ^= st << 13
			st ^= st >> 17
			st ^= st << 5
			if st < thr {
				c++
			}
		}
		sc.counts[i] = c
	}
	s.rng = st
}

// countChunkLanes counts the chunk's schedule with the jump-ahead lane
// kernel of the stream's tier: the draw chain is cut into equal
// stripes (one per lane of the tier's width), segments are clipped at
// stripe boundaries into lane records, and each stripe's start state
// comes from JumpAhead. Counts land in the same per-segment slots the
// sequential walk fills, additively for boundary-split segments, so
// the totals are identical integers whatever the tier's lane count.
//
//xtenergy:hotpath
func (s *StreamEstimator) countChunkLanes(sc *schedule) {
	lanes := s.kernel.width()
	nseg := len(sc.segs)
	sc.counts = sc.counts[:nseg]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	q := sc.total / uint64(lanes)

	// Clip segments into per-lane record runs: lanes 0..lanes-2 own q
	// draws each, the last lane owns the remainder. Indexed writes into
	// presized buffers, with a fast path for the common segment that
	// fits entirely inside the current stripe — at most lanes-1 of the
	// chunk's segments cross a boundary.
	if need := nseg + lanes; cap(sc.recs) < need {
		sc.recs = make([]laneRec, need)
	}
	if cap(sc.laneEnd) < lanes {
		sc.laneEnd = make([]int32, lanes)
		sc.laneStates = make([]uint32, 0, lanes)
	}
	recs := sc.recs[:cap(sc.recs)]
	laneEnd := sc.laneEnd[:lanes]
	segs := sc.segs
	nr := 0
	lane := 0
	left := q
	for i := 0; i < nseg; i++ {
		rem := uint64(segs[i].draws)
		if rem <= left {
			recs[nr] = laneRec{thr: segs[i].thr, rem: uint32(rem), slot: uint32(i)}
			nr++
			left -= rem
			continue
		}
		for rem > 0 {
			if left == 0 {
				laneEnd[lane] = int32(nr)
				lane++
				left = q
				if lane == lanes-1 {
					left = sc.total // the last lane takes all the rest
				}
			}
			take := rem
			if take > left {
				take = left
			}
			recs[nr] = laneRec{thr: segs[i].thr, rem: uint32(take), slot: uint32(i)}
			nr++
			rem -= take
			left -= take
		}
	}
	for ; lane < lanes; lane++ {
		laneEnd[lane] = int32(nr)
	}
	sc.recs, sc.laneEnd = recs[:nr], laneEnd

	// Exact lane start states via jump-ahead, and the chunk's exit
	// state for chain continuity into the next chunk.
	states := sc.laneStates[:0]
	st := s.rng
	for l := 0; l < lanes; l++ {
		states = append(states, st)
		if l < lanes-1 {
			st = JumpAhead(st, q)
		}
	}
	sc.laneStates = states
	s.rng = JumpAhead(s.rng, sc.total)

	switch lanes {
	case 64:
		w := &sc.walk64
		w.recs, w.counts = sc.recs, sc.counts
		sc.fillLanes(w.off[:], w.cnt[:], w.st[:])
		countStripes64(w)
	case 16:
		w := &sc.walk16
		w.recs, w.counts = sc.recs, sc.counts
		sc.fillLanes(w.off[:], w.cnt[:], w.st[:])
		countStripes16(w)
	default:
		w := &sc.walk8
		w.recs, w.counts = sc.recs, sc.counts
		sc.fillLanes(w.off[:], w.cnt[:], w.st[:])
		countStripes8Go(w)
	}
}

// fillLanes wires the walk's lane window onto the clipped record runs
// and jump-ahead start states; the walk structs' fixed arrays are
// passed as slices so the setup is shared across the per-width types.
func (sc *schedule) fillLanes(off, cnt, st []uint32) {
	start := int32(0)
	for l := range off {
		off[l] = uint32(start)
		cnt[l] = uint32(sc.laneEnd[l] - start)
		st[l] = sc.laneStates[l]
		start = sc.laneEnd[l]
	}
}

// foldChunk turns toggle counts into energies, replaying the float
// operations in the sequential order: per entry, per block, active
// then idle, each count scaled and added to the block and entry
// accumulators exactly as the sequential path does. Each product is
// rounded by float64(...) before it is added, so arm64 cannot fuse it
// into a multiply-add.
//
//xtenergy:hotpath
func (s *StreamEstimator) foldChunk(sc *schedule, ne int) {
	blocks := s.e.blocks
	perBlock := s.perBlock
	segs, counts := sc.segs, sc.counts
	si := 0
	for i := 0; i < ne; i++ {
		last := int(sc.entEnd[i])
		var entryPJ float64
		for ; si < last; si++ {
			bk := segs[si].bk
			pj := float64(float64(counts[si]) * blocks[bk>>1].pjNet[bk&1])
			perBlock[bk>>1] += pj
			entryPJ += pj
		}
		if s.OnEntry != nil {
			s.OnEntry(int(s.entries), uint64(sc.entCyc[i]), entryPJ)
		}
		s.entries++
	}
}

// consumeEntrySeq simulates every structural block for every cycle of
// one retired instruction on the scalar chain — the sequential
// reference path, used for chunks outside the lane kernel's sizing
// envelope and as the differential oracle for the lane kernel.
func (s *StreamEstimator) consumeEntrySeq(te *iss.TraceEntry) error {
	e := s.e
	cyc, pAct, err := s.prepEntry(te)
	if err != nil {
		return s.wrapEntryFault(te, s.entries, err)
	}
	var entryPJ float64
	for bi := range e.blocks {
		bm := &e.blocks[bi]
		act := s.activity[bi]
		if act > cyc {
			act = cyc
		}
		if act > 0 {
			pj := float64(s.simulateNets(bm.nets, act, pAct) * bm.pjNet[0])
			s.perBlock[bi] += pj
			entryPJ += pj
		}
		if idle := cyc - act; idle > 0 {
			pj := float64(s.simulateNets(bm.nets, idle, pIdle) * bm.pjNet[1])
			s.perBlock[bi] += pj
			entryPJ += pj
		}
	}
	if s.OnEntry != nil {
		s.OnEntry(int(s.entries), uint64(cyc), entryPJ)
	}
	s.entries++
	return nil
}

// simulateNets advances the toggle process of a net population for the
// given number of cycles and returns the number of observed toggles.
// This per-net work is what a gate-level power simulator fundamentally
// does, and is what makes the reference path slow; the lane kernel
// (countChunkLanes) computes the same counts from the same states with
// the serial dependency broken by jump-ahead.
//
//xtenergy:hotpath
func (s *StreamEstimator) simulateNets(nets, cycles int, p float64) float64 {
	threshold := toggleThreshold(p)
	toggles := 0
	st := s.rng
	for c := 0; c < cycles; c++ {
		for n := 0; n < nets; n++ {
			// xorshift32
			st ^= st << 13
			st ^= st >> 17
			st ^= st << 5
			if st < threshold {
				toggles++
			}
		}
	}
	s.rng = st
	return float64(toggles)
}

// Finish closes the pass and returns the accumulated report.
func (s *StreamEstimator) Finish() (Report, error) {
	if s.sched != nil {
		schedPool.Put(s.sched)
		s.sched = nil
	}
	if s.entries == 0 {
		return Report{}, errors.New("rtlpower: empty trace (was the ISS run with a TraceSink?)")
	}
	var total float64
	for _, v := range s.perBlock {
		total += v
	}
	return Report{TotalPJ: total, PerBlockPJ: s.perBlock, Cycles: s.cycles}, nil
}

// streamBatchBuffers bounds the number of trace batches in flight
// between the simulator and the estimator in RunStreamed. Memory is
// therefore capped at streamBatchBuffers*iss.TraceBatchSize entries per
// run, independent of how many instructions retire.
const streamBatchBuffers = 4

// errStreamAborted is returned to the simulator's TraceSink once the
// consumer has failed, so the run stops instead of simulating on.
var errStreamAborted = errors.New("rtlpower: stream estimator failed; aborting simulation")

// Consumer receives the execution trace batch by batch in retirement
// order. *StreamEstimator is the production implementation; the chaos
// harness wraps one to corrupt, stall, or drop batches. A Consumer used
// with RunStreamed must return promptly or watch the run's context:
// a Consume call that blocks forever deadlocks the stream shutdown.
type Consumer interface {
	Consume(batch []iss.TraceEntry) error
}

// safeConsume delivers one batch, recovering a panicking consumer into
// a typed fault so a broken (or chaos-sabotaged) estimator cannot tear
// down the process.
func safeConsume(c Consumer, batch []iss.TraceEntry) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &iss.Fault{Kind: iss.FaultPanic, PC: -1, Msg: fmt.Sprintf("trace consumer panicked: %v", r)}
		}
	}()
	return c.Consume(batch)
}

// RunStreamed executes prog on sim while c (usually a *StreamEstimator)
// estimates it concurrently: the simulator's TraceSink copies each
// retired batch into one of a fixed ring of buffers and hands it to a
// consumer goroutine over a bounded channel, so simulation overlaps
// with per-net estimation and the trace is never materialized. Batch
// boundaries do not affect the estimate, so the result is deterministic
// and bit-identical to EstimateTrace on the same run. Any TraceSink
// already in opts is overridden. The caller still owns the consumer
// and, for a StreamEstimator, must call Finish.
//
// Cancelling ctx aborts the run within one batch boundary with a
// FaultCancelled fault (the simulator polls the context, and a sink
// blocked on a stalled consumer unblocks on ctx.Done). The consumer
// goroutine and both channels are always drained before RunStreamed
// returns — cancellation leaks nothing.
func RunStreamed(ctx context.Context, sim *iss.Simulator, prog *iss.Program, opts iss.Options, c Consumer) (*iss.Result, error) {
	if st, ok := c.(*StreamEstimator); ok && st.pl == nil {
		st.pl = prog.Plan(st.e.proc.TIE)
	}
	free := make(chan []iss.TraceEntry, streamBatchBuffers)
	for i := 0; i < streamBatchBuffers; i++ {
		free <- make([]iss.TraceEntry, 0, iss.TraceBatchSize)
	}
	work := make(chan []iss.TraceEntry, streamBatchBuffers)

	var (
		consumeErr error
		failed     atomic.Bool
		done       = make(chan struct{})
	)
	go func() {
		defer close(done)
		for b := range work {
			if consumeErr == nil {
				if err := safeConsume(c, b); err != nil {
					consumeErr = err
					failed.Store(true)
				}
			}
			free <- b[:0]
		}
	}()

	opts.TraceSink = func(batch []iss.TraceEntry) error {
		if failed.Load() {
			return errStreamAborted
		}
		select {
		case buf := <-free:
			// work is as deep as the buffer ring, so this send never
			// blocks.
			work <- append(buf, batch...)
			return nil
		case <-ctx.Done():
			// The consumer is stalled (all buffers in flight) and the
			// run's deadline expired, or the run was cancelled: abort
			// at this batch boundary instead of waiting forever.
			return &iss.Fault{Kind: iss.FaultCancelled, PC: -1, Msg: "trace stream stalled or cancelled", Err: ctx.Err()}
		}
	}
	res, runErr := sim.RunContext(ctx, prog, opts)
	close(work)
	<-done
	if consumeErr != nil {
		return nil, consumeErr
	}
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
