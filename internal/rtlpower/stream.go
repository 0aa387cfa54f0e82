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
// Each consumed chunk goes through three steps. Compile prices the
// entries into a draw schedule — the per-block segments of toggle-RNG
// draws an entry implies are a pure function of the trace entry and its
// plan record — already clipped into the stripes of jump-ahead lanes
// (see lanes.go and jump.go). Walk counts the schedule's toggles on
// those lanes instead of one latency-bound xorshift recurrence — 8, 16,
// or 64 lanes wide depending on the estimator's kernel tier (see
// kernel.go). Fold turns the counts into energies. The lanes enumerate
// exactly the states the sequential walk would, toggle counts are
// integers, and the fold replays the float operations in the
// sequential order, so reports, per-block energies, and per-entry
// (OnEntry) energies are bit-identical to the sequential path.
//
// A StreamEstimator is a single estimation pass: Consume any number of
// batches in retirement order, then Finish once. It is not safe for
// concurrent use; obtain one per run via Estimator.Stream. RunStreamed
// splits one stream's steps over its two goroutines, so that compile
// state (below) and fold state are each touched by one goroutine only.
type StreamEstimator struct {
	e *Estimator

	// OnEntry, if non-nil, is invoked after each consumed instruction
	// with its zero-based trace index, its cycle count and its energy.
	// Used by the windowed power profile; leave nil otherwise.
	OnEntry func(idx int, cycles uint64, pj float64)

	// Compile state: advanced by compile (and by consumeEntrySeq).
	rng      uint32
	activity []int // active cycles per block for the current instruction
	cycles   uint64
	prev     iss.TraceEntry
	havePrev bool

	// Fold state: advanced by foldChunk (and by consumeEntrySeq).
	perBlock []float64
	entries  uint64

	// pl is the predecoded plan of the program being streamed, attached
	// by RunStreamed; entries are priced from its records. When nil (or
	// when an entry no longer matches its record), the entry falls
	// back to the estimator's Describe cache.
	pl *plan.Plan

	icPen, dcPen int

	thrIdle   uint32 // toggle threshold of the idle process, fixed per pass
	totalNets uint64 // Σ nets over all blocks: draws per simulated cycle
	kernel    Kernel // walker tier, copied from the estimator
	// scheds holds the stream's compiled chunks, drawn from schedPool
	// on first use and returned by Finish: Consume compiles into
	// scheds[0], RunStreamed's ring into all of them.
	scheds   [ringSize]*schedule
	forceSeq bool // tests: pin the sequential reference path
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

// schedule is one chunk of trace entries compiled for the walk: its
// draw segments, laid end to end on the stream's one draw chain, cut
// into stripes (one per lane) and clipped at the stripe boundaries into
// lane records, with each stripe's jump-ahead start state. The walk
// fills the per-segment counts; the fold reads them back entry by
// entry. Buffers are sized by the first chunk, grown only by a wider
// one, and reused; schedules themselves are pooled (schedPool) across
// estimation passes, so both Consume in the steady state and fresh
// StreamEstimators after warm-up allocate nothing.
type schedule struct {
	recs    []laneRec // clipped draw runs, lane after lane
	counts  []uint32  // per segment: toggle count, filled by the walk
	present []uint64  // per entry, words wide: which (block, phase) segments it emitted
	entCyc  []uint32  // per entry: charged cycles
	words   int       // present words per entry
	nseg    int       // segments compiled
	total   uint64    // draws compiled

	// Stripe clipping: lanes stripes of q draws, the last one taking
	// the rest (last draws); lane is the stripe being filled and left
	// the room it has.
	lanes, lane   int
	q, left, last uint64
	laneEnd       [maxWalkLanes]int32
	laneStates    [maxWalkLanes]uint32

	// fault is the pricing failure that ended compilation at faultEntry,
	// reported by the fold after the entries before it.
	fault      error
	faultEntry iss.TraceEntry

	walk8  walk8
	walk16 walk16
	walk64 walk64
}

// schedPool recycles schedule scratch across StreamEstimators. A
// schedule's buffers follow the widest chunk it has compiled: about
// 65 KB for a 256-entry streamed batch on the default processor's 12
// blocks, four times that after a 1024-entry chunk of a materialized
// trace. Before pooling, every fresh pass re-allocated them on its
// first chunk — the BENCH_iss.json reference_streamed alloc regression
// (29 → 39 allocs/op), which git history places at the jump-ahead lane
// kernel (PR 5), not the memo engine.
var schedPool = sync.Pool{New: func() any { return new(schedule) }}

// begin resets sc to compile up to nentries entries whose draws total
// draws: one stripe walked as a scalar chain from state st, or lanes
// stripes starting at the jump-ahead states of st.
func (sc *schedule) begin(nentries, nblocks, lanes int, st uint32, draws uint64) {
	// An entry emits one or two segments per block — two only for a
	// block busy part of a multi-cycle entry, a few per entry in the
	// registry — so reserve a quarter more than one, and only grow: a
	// pooled schedule keeps the capacity of the largest chunk it has
	// compiled.
	if segCap := nentries * nblocks * 5 / 4; cap(sc.counts) < segCap {
		sc.counts = make([]uint32, 0, segCap)
		sc.recs = make([]laneRec, 0, segCap+maxWalkLanes)
	}
	sc.words = (nblocks + 31) / 32
	if cap(sc.present) < nentries*sc.words {
		sc.present = make([]uint64, 0, nentries*sc.words)
	}
	if cap(sc.entCyc) < nentries {
		sc.entCyc = make([]uint32, 0, nentries)
	}
	sc.recs, sc.present, sc.entCyc = sc.recs[:0], sc.present[:0], sc.entCyc[:0]
	sc.nseg, sc.total, sc.fault = 0, 0, nil

	sc.lanes, sc.lane = lanes, 0
	sc.q = draws / uint64(lanes)
	sc.last = draws - sc.q*uint64(lanes-1)
	sc.left = sc.q
	if lanes == 1 {
		sc.left = sc.last
	}
	for l := 0; l < lanes; l++ {
		sc.laneStates[l] = st
		if l < lanes-1 {
			st = JumpAhead(st, sc.q)
		}
	}
}

// clipFrom lays the records from index first on, which run past the
// current stripe's room, across the stripe boundaries: a record that
// crosses one is split in place into two records with the same counts
// slot, where the walk adds their toggles.
func (sc *schedule) clipFrom(first int) {
	for i := first; i < len(sc.recs); i++ {
		for uint64(sc.recs[i].rem) > sc.left {
			if left := uint32(sc.left); left > 0 {
				sc.recs = append(sc.recs, laneRec{})
				copy(sc.recs[i+1:], sc.recs[i:])
				sc.recs[i].rem = left
				i++
				sc.recs[i].rem -= left
			}
			sc.laneEnd[sc.lane] = int32(i)
			sc.lane++
			sc.left = sc.q
			if sc.lane == sc.lanes-1 {
				sc.left = sc.last
			}
		}
		sc.left -= uint64(sc.recs[i].rem)
	}
}

// end closes the stripes that received no records and sizes the
// counts for the walk.
func (sc *schedule) end() {
	for ; sc.lane < sc.lanes; sc.lane++ {
		sc.laneEnd[sc.lane] = int32(len(sc.recs))
	}
	if cap(sc.counts) < sc.nseg {
		sc.counts = make([]uint32, sc.nseg)
	}
	sc.counts = sc.counts[:sc.nseg]
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

// chunkDraws is the chunk's draw total, Σcycles × Σnets.
func (s *StreamEstimator) chunkDraws(chunk []iss.TraceEntry) uint64 {
	var sumCyc uint64
	for i := range chunk {
		c := uint64(chunk[i].Cycles)
		if c == 0 {
			c = 1
		}
		sumCyc += c
	}
	return sumCyc * s.totalNets
}

// sequential reports whether a chunk of draws draws takes the scalar
// reference path instead of compile, walk and fold.
func (s *StreamEstimator) sequential(draws uint64) bool {
	return s.forceSeq || draws > maxChunkDraws
}

// consumeChunk estimates up to one batch worth of entries through its
// three steps in sequence: compile, walk, fold. Chunks too large for
// 32-bit lane arithmetic are halved until they fit; a single entry over
// the cap takes the sequential reference path, which is bit-identical
// by construction.
func (s *StreamEstimator) consumeChunk(chunk []iss.TraceEntry) error {
	draws := s.chunkDraws(chunk)
	if s.sequential(draws) {
		// A chunk over the 32-bit draw cap is split, not
		// sequentialized: only a single entry that still exceeds the
		// cap (pathological per-entry cycle counts) walks the scalar
		// reference path. Either way the result is bit-identical.
		if !s.forceSeq && len(chunk) > 1 {
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
	sc := s.sched(0)
	s.compile(sc, chunk, draws)
	sc.walk()
	return s.fold(sc)
}

// sched returns the stream's i-th schedule, drawn from the pool on
// first use.
func (s *StreamEstimator) sched(i int) *schedule {
	if s.scheds[i] == nil {
		s.scheds[i] = schedPool.Get().(*schedule)
	}
	return s.scheds[i]
}

// compile prices chunk, whose draws total draws, into sc: per entry
// the sequential state (prepEntry), then its draw segments clipped into
// lane records. It advances the compile state — cycles, switching
// history, and the RNG, by jumping it over the draws compiled — and
// touches no fold state. An entry that cannot be priced ends the chunk;
// sc keeps a copy of it for the fold to report.
func (s *StreamEstimator) compile(sc *schedule, chunk []iss.TraceEntry, draws uint64) {
	lanes := 1
	if draws >= laneMinDraws {
		lanes = s.kernel.width()
	}
	sc.begin(len(chunk), len(s.e.blocks), lanes, s.rng, draws)
	var sumCyc uint64
	for i := range chunk {
		cyc, pAct, err := s.prepEntry(&chunk[i])
		if err != nil {
			sc.fault, sc.faultEntry = err, chunk[i]
			break
		}
		s.emitSegments(sc, cyc, pAct)
		sumCyc += uint64(cyc)
	}
	// Every block draws once per net per cycle, active or idle.
	sc.total = sumCyc * s.totalNets
	sc.end()
	s.rng = JumpAhead(s.rng, sc.total)
}

// fold folds sc's walked counts into the estimate (foldChunk), then
// reports the pricing fault that ended its compilation, if any, with
// the faulting entry's global trace index.
func (s *StreamEstimator) fold(sc *schedule) error {
	s.foldChunk(sc)
	if sc.fault != nil {
		return s.wrapEntryFault(&sc.faultEntry, s.entries, sc.fault)
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
// simulates them, appended as lane records, and marks each segment's
// block and phase in the entry's present words, 32 blocks to a word:
// for block b, bit 2(b mod 32) of word b/32 marks its active segment
// and the bit above it its idle one. The
// entry draws cyc × Σnets; when that crosses the current stripe's
// boundary — at most lanes-1 entries a chunk — its records are
// clipped afterwards.
//
//xtenergy:hotpath
func (s *StreamEstimator) emitSegments(sc *schedule, cyc int, pAct float64) {
	thrA := toggleThreshold(pAct)
	thrI := s.thrIdle
	blocks := s.e.blocks
	activity := s.activity[:len(blocks)]
	first := len(sc.recs)
	recs, slot := sc.recs, uint32(sc.nseg)
	var present uint64
	for bi := range blocks {
		nets := blocks[bi].nets
		act := activity[bi]
		if act > cyc {
			act = cyc
		}
		sh := uint(2 * (bi & 31)) // block bi's active bit in its word
		if act > 0 {
			recs = append(recs, laneRec{thr: thrA, rem: uint32(act * nets), slot: slot})
			slot++
			present |= 1 << sh
		}
		if idle := cyc - act; idle > 0 {
			recs = append(recs, laneRec{thr: thrI, rem: uint32(idle * nets), slot: slot})
			slot++
			present |= 2 << sh
		}
		if bi&31 == 31 {
			sc.present = append(sc.present, present)
			present = 0
		}
	}
	if len(blocks)&31 != 0 {
		sc.present = append(sc.present, present)
	}
	sc.recs, sc.nseg = recs, int(slot)
	sc.entCyc = append(sc.entCyc, uint32(cyc))
	if d := uint64(cyc) * s.totalNets; d <= sc.left {
		sc.left -= d
	} else {
		sc.clipFrom(first)
	}
}

// walk counts the toggles of every segment of sc into its counts slot:
// one scalar chain for a single-stripe chunk, the lane kernel of the
// chunk's width otherwise. It reads and writes nothing but sc, so
// either of RunStreamed's goroutines may run it.
//
//xtenergy:hotpath
func (sc *schedule) walk() {
	if sc.total == 0 {
		return
	}
	clear(sc.counts)
	switch sc.lanes {
	case 1:
		st := sc.laneStates[0]
		for _, r := range sc.recs {
			c := uint32(0)
			for k := uint32(0); k < r.rem; k++ {
				st ^= st << 13
				st ^= st >> 17
				st ^= st << 5
				if st < r.thr {
					c++
				}
			}
			sc.counts[r.slot] += c
		}
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
// then idle — ascending bk, the order of the entry's present bits —
// each count scaled and added to the block and entry accumulators
// exactly as the sequential path does. Each product is rounded by
// float64(...) before it is added, so arm64 cannot fuse it into a
// multiply-add.
//
//xtenergy:hotpath
func (s *StreamEstimator) foldChunk(sc *schedule) {
	blocks := s.e.blocks
	perBlock := s.perBlock
	counts := sc.counts
	si := 0
	for i, cyc := range sc.entCyc {
		var entryPJ float64
		for w, m := range sc.present[i*sc.words : (i+1)*sc.words] {
			for ; m != 0; m &= m - 1 {
				bk := w<<6 | bits.TrailingZeros64(m)
				pj := float64(float64(counts[si]) * blocks[bk>>1].pjNet[bk&1])
				perBlock[bk>>1] += pj
				entryPJ += pj
				si++
			}
		}
		if s.OnEntry != nil {
			s.OnEntry(int(s.entries), uint64(cyc), entryPJ)
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
// does, and is what makes the reference path slow; the chunk walk
// (schedule.walk) computes the same counts from the same states with
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
	for i, sc := range s.scheds {
		if sc != nil {
			schedPool.Put(sc)
			s.scheds[i] = nil
		}
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

// ringSize is the number of chunks RunStreamed keeps in flight for a
// StreamEstimator: the simulator's goroutine compiles into one slot
// while the two goroutines walk the two before it. Fewer slots leave a
// goroutine idle more often; more hold more schedules (each about
// 65 KB on the default processor) for little more overlap.
const ringSize = 3

// errStreamAborted is returned to the simulator's TraceSink once the
// stream has failed, so the run stops instead of simulating on.
var errStreamAborted = errors.New("rtlpower: stream estimator failed; aborting simulation")

// Consumer receives the execution trace batch by batch in retirement
// order. *StreamEstimator is the production implementation; the chaos
// harness wraps one to corrupt, stall, or drop batches. A Consumer used
// with RunStreamed must return promptly or watch the run's context:
// a Consume call that blocks forever deadlocks the stream shutdown.
type Consumer interface {
	Consume(batch []iss.TraceEntry) error
}

// panicFault is the typed fault a panic recovered from a consumer, or
// from a stream's compile, walk or fold, becomes.
func panicFault(p any) error {
	return &iss.Fault{Kind: iss.FaultPanic, PC: -1, Msg: fmt.Sprintf("trace consumer panicked: %v", p)}
}

// safeConsume delivers one batch, recovering a panicking consumer into
// a typed fault so a broken (or chaos-sabotaged) estimator cannot tear
// down the process.
func safeConsume(c Consumer, batch []iss.TraceEntry) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicFault(p)
		}
	}()
	return c.Consume(batch)
}

// Walk claims: which goroutine walks a slot's schedule.
const (
	walkOpen     = iota // compiled, not yet claimed
	walkConsumer        // the consumer goroutine's, or nothing to walk
	walkSim             // the simulator's goroutine's; it signals walked
)

// slot is one chunk in flight through RunStreamed's ring.
type slot struct {
	idx    int              // position in the ring
	sc     *schedule        // a StreamEstimator's chunk, compiled
	batch  []iss.TraceEntry // another Consumer's batch, copied
	claim  atomic.Int32     // walkOpen until a goroutine claims the walk
	walked chan struct{}
	// err is a failure met before the fold — a panic while compiling or
	// walking — reported in trace order by the consumer goroutine.
	err error
}

// walk walks sl's schedule for the goroutine that claimed it,
// recovering a panic into sl.err.
func (sl *slot) walk() {
	defer func() {
		if p := recover(); p != nil {
			sl.err = panicFault(p)
		}
	}()
	sl.sc.walk()
}

// ring carries one RunStreamed run's chunks from the simulator's
// goroutine, which compiles each retired batch into a free slot, to the
// consumer goroutine, which folds the slots in order. Each compiled
// slot is walked once, by whichever goroutine claims it first: the
// simulator, when it finds no free slot, claims the newest; the
// consumer claims the oldest, and walks later slots while the
// simulator walks the one it must fold next. For a Consumer other than
// a *StreamEstimator, compiling is copying the batch, there is no walk,
// and folding is Consume, so such a consumer sees in-order Consume
// calls on one goroutine.
type ring struct {
	c     Consumer
	st    *StreamEstimator // c, when it is one
	slots [ringSize]slot
	next  int        // simulator: the slot after the last one filled
	free  chan *slot // slots the consumer has settled, in ring order
	ready chan *slot // slots filled and not yet settled, in trace order
	done  chan struct{}

	failed     atomic.Bool // set once the consumer goroutine has failed
	consumeErr error       // consumer goroutine's first failure
	serialErr  error       // simulator's failure on a sequential chunk
}

func newRing(c Consumer) *ring {
	r := &ring{
		c: c,
		// Both channels hold every slot, so neither side's send blocks.
		free:  make(chan *slot, ringSize),
		ready: make(chan *slot, ringSize),
		done:  make(chan struct{}),
	}
	r.st, _ = c.(*StreamEstimator)
	for i := range r.slots {
		sl := &r.slots[i]
		sl.idx = i
		sl.claim.Store(walkConsumer) // nothing to walk until compiled
		if r.st != nil {
			sl.walked = make(chan struct{}, 1)
		}
		r.free <- sl
	}
	return r
}

// sink is the simulator's TraceSink: it compiles batch into a free
// slot and hands the slot to the consumer goroutine.
func (r *ring) sink(ctx context.Context, batch []iss.TraceEntry) error {
	if r.failed.Load() {
		return errStreamAborted
	}
	var draws uint64
	if r.st != nil {
		draws = r.st.chunkDraws(batch)
		if r.st.sequential(draws) {
			return r.barrier(ctx, batch)
		}
	}
	sl, err := r.acquire(ctx)
	if err != nil {
		return err
	}
	ok := r.fill(sl, batch, draws)
	r.ready <- sl
	if !ok {
		return errStreamAborted
	}
	return nil
}

// acquire returns the next free slot. While none is free it walks
// compiled slots nobody has claimed yet, and waits only when there is
// none; a cancelled run stops the wait.
func (r *ring) acquire(ctx context.Context) (*slot, error) {
	for {
		select {
		case sl := <-r.free:
			r.next = (sl.idx + 1) % ringSize
			return sl, nil
		default:
		}
		if r.help() {
			continue
		}
		select {
		case sl := <-r.free:
			r.next = (sl.idx + 1) % ringSize
			return sl, nil
		case <-ctx.Done():
			return nil, cancelledFault(ctx)
		}
	}
}

// cancelledFault is the typed fault of a run whose context ended while
// the sink waited for the consumer.
func cancelledFault(ctx context.Context) error {
	return &iss.Fault{Kind: iss.FaultCancelled, PC: -1, Msg: "trace stream stalled or cancelled", Err: ctx.Err()}
}

// help claims the newest compiled slot no goroutine has claimed — the
// one the consumer folds last — and walks it on the simulator's
// goroutine. It reports whether there was such a slot.
func (r *ring) help() bool {
	for i := ringSize - 1; i >= 0; i-- {
		sl := &r.slots[(r.next+i)%ringSize]
		if sl.claim.CompareAndSwap(walkOpen, walkSim) {
			sl.walk()
			sl.walked <- struct{}{}
			return true
		}
	}
	return false
}

// fill compiles batch, of draws draws, into sl on the simulator's
// goroutine. It reports false when the stream cannot go past this
// batch: an entry could not be priced, or compiling panicked. The slot
// then carries the failure to the consumer goroutine.
func (r *ring) fill(sl *slot, batch []iss.TraceEntry, draws uint64) (ok bool) {
	if r.st == nil {
		if sl.batch == nil {
			sl.batch = make([]iss.TraceEntry, 0, iss.TraceBatchSize)
		}
		sl.batch = append(sl.batch[:0], batch...)
		return true
	}
	sl.err = nil
	sl.sc = r.st.sched(sl.idx)
	claim := int32(walkConsumer)
	defer func() {
		if p := recover(); p != nil {
			sl.err, claim, ok = panicFault(p), walkConsumer, false
		}
		sl.claim.Store(claim) // publishes the schedule to a claiming walker
	}()
	r.st.compile(sl.sc, batch, draws)
	if sl.sc.total > 0 {
		claim = walkOpen
	}
	return sl.sc.fault == nil
}

// consume is the consumer goroutine: it settles every slot in trace
// order, and once one has failed drops the rest, so the simulator never
// waits on a dead consumer.
func (r *ring) consume() {
	defer close(r.done)
	for sl := range r.ready {
		if err := r.settle(sl, r.consumeErr == nil); err != nil {
			r.consumeErr = err
			r.failed.Store(true)
		}
		r.free <- sl
	}
}

// settle makes sure sl is walked — by claiming the walk, or by waiting
// for the simulator's goroutine to finish it — then folds it. A
// dropped slot (live false) is claimed or waited for but neither walked
// nor folded, so no walk of it is left running once it is free.
func (r *ring) settle(sl *slot, live bool) (err error) {
	if sl.claim.CompareAndSwap(walkOpen, walkConsumer) {
		if live {
			sl.walk()
		}
	} else if sl.claim.Load() == walkSim {
		r.await(sl, live)
	}
	if !live {
		return nil
	}
	if sl.err != nil {
		return sl.err
	}
	defer func() {
		if p := recover(); p != nil {
			err = panicFault(p)
		}
	}()
	if r.st == nil {
		return r.c.Consume(sl.batch)
	}
	return r.st.fold(sl.sc)
}

// await waits for the simulator's goroutine to finish walking sl.
// Meanwhile a live consumer walks the later slots nobody has claimed,
// oldest first.
func (r *ring) await(sl *slot, live bool) {
	for live {
		select {
		case <-sl.walked:
			return
		default:
		}
		if !r.walkAfter(sl) {
			break
		}
	}
	<-sl.walked
}

// walkAfter claims the oldest compiled slot after sl that no goroutine
// has claimed and walks it on the consumer goroutine. It reports
// whether there was such a slot.
func (r *ring) walkAfter(sl *slot) bool {
	for i := 1; i < ringSize; i++ {
		if later := &r.slots[(sl.idx+i)%ringSize]; later.claim.CompareAndSwap(walkOpen, walkConsumer) {
			later.walk()
			return true
		}
	}
	return false
}

// barrier runs a chunk outside the lane walk's envelope on the
// simulator's goroutine, through Consume's sequential path, once the
// consumer has settled every slot in flight: the simulator then owns
// both the compile and the fold state.
func (r *ring) barrier(ctx context.Context, batch []iss.TraceEntry) error {
	var held [ringSize]*slot
	for i := range held {
		select {
		case held[i] = <-r.free:
		case <-ctx.Done():
			return cancelledFault(ctx)
		}
	}
	defer func() {
		for _, sl := range held {
			r.free <- sl
		}
	}()
	if r.failed.Load() {
		return errStreamAborted
	}
	if err := safeConsume(r.st, batch); err != nil {
		r.serialErr = err
		return errStreamAborted
	}
	return nil
}

// RunStreamed executes prog on sim while c (usually a *StreamEstimator)
// estimates it concurrently, on one goroutine besides the caller's, and
// the trace is never materialized. For a StreamEstimator, the
// simulator's TraceSink compiles each retired batch into the next free
// slot of a ring of ringSize schedules, the consumer goroutine folds
// the slots strictly in trace order, and each slot is walked once, by
// whichever goroutine claims it first. Chunk boundaries and the
// goroutine a walk runs on do not affect the estimate, so the result is
// deterministic and bit-identical to EstimateTrace on the same run. Any
// TraceSink already in opts is overridden. The caller still owns the
// consumer and, for a StreamEstimator, must call Finish.
//
// Cancelling ctx aborts the run within one batch boundary with a
// FaultCancelled fault (the simulator polls the context, and a sink
// waiting on a stalled consumer unblocks on ctx.Done). Every slot is
// settled or dropped and the consumer goroutine has exited before
// RunStreamed returns — cancellation leaks nothing. Under an already
// cancelled ctx no instruction retires: RunStreamed only attaches the
// program's plan to a StreamEstimator, which stays ready for Consume.
func RunStreamed(ctx context.Context, sim *iss.Simulator, prog *iss.Program, opts iss.Options, c Consumer) (*iss.Result, error) {
	r := newRing(c)
	if r.st != nil && r.st.pl == nil {
		r.st.pl = prog.Plan(r.st.e.proc.TIE)
	}
	go r.consume()
	opts.TraceSink = func(batch []iss.TraceEntry) error { return r.sink(ctx, batch) }
	res, runErr := sim.RunContext(ctx, prog, opts)
	close(r.ready)
	<-r.done
	for _, err := range []error{r.consumeErr, r.serialErr, runErr} {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
