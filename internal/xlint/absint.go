package xlint

// Abstract interpretation over the predecoded plan IR: an interval +
// constant-propagation domain for the 64 general registers, propagated
// to a fixpoint over the CFG with widening at loop headers. The
// converged states feed three consumers:
//
//   - value-aware findings (statically dead branch edges, zero-trip
//     and never-terminating zero-overhead loops, accesses that are
//     out of RAM on every execution),
//   - the trip-count engine (tripcount.go), which turns count-register
//     intervals and induction-variable steps into finite bounds on
//     back-edge traversals,
//   - the WCEC instantiation (wcec.go), which multiplies those bounds
//     into PathBounds' symbolic loop terms.
//
// Soundness contract: for every reachable pc, the interval of each
// register contains every value the ISS can observe in that register
// immediately before executing that pc (iss.Options.RegProbe is the
// dynamic oracle the differential tests check this against). Transfer
// functions mirror the exec-table semantics in internal/iss exactly;
// anything not modeled precisely degrades to [0, 2^32-1], never to a
// narrower guess.

import (
	"fmt"
	"math/bits"

	"xtenergy/internal/isa"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
)

// maxU32 is the top of the unsigned 32-bit value lattice.
const maxU32 = int64(1)<<32 - 1

// signBit is the unsigned value of the smallest negative int32.
const signBit = int64(1) << 31

// absHaltPC mirrors the simulator's link-register halt sentinel.
const absHaltPC = int64(0xFFFF_FFFF)

// Itv is a closed interval of unsigned 32-bit register values,
// Lo <= Hi, both within [0, 2^32-1].
type Itv struct{ Lo, Hi int64 }

func itvTop() Itv            { return Itv{0, maxU32} }
func itvConst(v uint32) Itv  { return Itv{int64(v), int64(v)} }
func (a Itv) IsConst() bool  { return a.Lo == a.Hi }
func (a Itv) String() string { return fmt.Sprintf("[%d,%d]", a.Lo, a.Hi) }

func (a Itv) join(b Itv) Itv {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// meet intersects; ok is false when the result is empty.
func (a Itv) meet(b Itv) (Itv, bool) {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	return a, a.Lo <= a.Hi
}

// signedView returns the interval reinterpreted as signed int32 values
// when it does not straddle the sign boundary (ok=false when it does).
func (a Itv) signedView() (lo, hi int64, ok bool) {
	switch {
	case a.Hi < signBit: // entirely non-negative
		return a.Lo, a.Hi, true
	case a.Lo >= signBit: // entirely negative
		return a.Lo - (maxU32 + 1), a.Hi - (maxU32 + 1), true
	}
	return 0, 0, false
}

// fromSigned encodes a signed int32 interval back into the unsigned
// domain; representable only when it does not cross zero into wraparound
// (i.e. it lies entirely in [-2^31, -1] or [0, 2^31-1]).
func fromSigned(lo, hi int64) (Itv, bool) {
	if lo > hi {
		return Itv{}, false
	}
	switch {
	case lo >= 0:
		return Itv{lo, hi}, true
	case hi < 0:
		return Itv{lo + maxU32 + 1, hi + maxU32 + 1}, true
	}
	return Itv{}, false
}

// modAdd adds two intervals with 32-bit wraparound: exact when the
// concrete sums all land in the same 2^32 window, top when they
// straddle a wrap boundary.
func modAdd(a, b Itv) Itv {
	lo, hi := a.Lo+b.Lo, a.Hi+b.Hi
	if hi <= maxU32 {
		return Itv{lo, hi}
	}
	if lo > maxU32 {
		return Itv{lo - (maxU32 + 1), hi - (maxU32 + 1)}
	}
	return itvTop()
}

func modSub(a, b Itv) Itv {
	lo, hi := a.Lo-b.Hi, a.Hi-b.Lo
	if lo >= 0 {
		return Itv{lo, hi}
	}
	if hi < 0 {
		return Itv{lo + maxU32 + 1, hi + maxU32 + 1}
	}
	return itvTop()
}

// bitLen returns the number of bits needed to represent v (0 for 0).
func bitLen(v int64) int { return bits.Len64(uint64(v)) }

// RegState is the abstract register file at one program point.
type RegState struct {
	R [isa.NumRegs]Itv
}

func (s *RegState) get(r uint8) Itv {
	if int(r) >= isa.NumRegs {
		return itvTop()
	}
	return s.R[r]
}

func (s *RegState) set(r uint8, v Itv) {
	if int(r) < isa.NumRegs {
		s.R[r] = v
	}
}

// joinInto merges o into s; returns true when s changed.
func (s *RegState) joinInto(o *RegState) bool {
	changed := false
	for i := range s.R {
		j := s.R[i].join(o.R[i])
		if j != s.R[i] {
			s.R[i] = j
			changed = true
		}
	}
	return changed
}

// widenFrom widens s relative to its previous value prev: any bound
// still moving after the join threshold jumps straight to the lattice
// extreme, guaranteeing termination.
func (s *RegState) widenFrom(prev *RegState) {
	for i := range s.R {
		if s.R[i].Lo < prev.R[i].Lo {
			s.R[i].Lo = 0
		}
		if s.R[i].Hi > prev.R[i].Hi {
			s.R[i].Hi = maxU32
		}
	}
}

// entryState is the abstract state at program entry: reset zeroes the
// register file and initializes a0 to the halt sentinel.
func entryState() *RegState {
	st := &RegState{}
	st.R[0] = Itv{absHaltPC, absHaltPC}
	return st
}

// widenThreshold is the number of in-state changes a loop-header block
// tolerates before its still-moving bounds are widened to the extremes.
const widenThreshold = 4

// narrowRounds caps the post-widening narrowing iterations (see
// Interpret); narrowing usually converges in one or two rounds.
const narrowRounds = 3

// ckptStride is the spacing, in instructions, of the states stored
// inside a block: a state is stored at every ckptStride-th instruction
// after the block's entry, so any pre-state is at most ckptStride-1
// transfers away from a stored one.
const ckptStride = 32

// AbsResult is the outcome of abstract interpretation of one program.
// It is immutable once Interpret returns, so concurrent readers need no
// synchronization: every query replays into a fresh state.
type AbsResult struct {
	CFG *CFG
	// In[id] is the converged abstract state at entry of block id; nil
	// when the interpreter never reached the block.
	In []*RegState
	// ckpt[id] holds the pre-states of the instructions at offsets
	// ckptStride, 2*ckptStride, ... from the start of reached block id.
	// Together with In this bounds the storage by one state per block
	// plus one per ckptStride instructions.
	ckpt [][]RegState
	// deadEdge marks successor edges whose branch condition is
	// statically impossible at the converged states.
	deadEdge map[edgeRef]bool
	memBytes int64
}

// StateAt returns the converged abstract register state immediately
// before the instruction at pc executes, or nil when pc is statically
// unreachable (or out of range). The result is a fresh copy the caller
// may keep or modify.
func (a *AbsResult) StateAt(pc int) *RegState {
	st := new(RegState)
	if !a.stateAt(pc, st) {
		return nil
	}
	return st
}

// stateAt writes the pre-state of pc into st by replaying the transfers
// from the nearest stored state at or before pc, and reports whether pc
// is reachable.
func (a *AbsResult) stateAt(pc int, st *RegState) bool {
	blk := a.CFG.BlockAt(pc)
	if blk == nil || a.In[blk.ID] == nil {
		return false
	}
	k := (pc - blk.Start) / ckptStride
	if k == 0 {
		*st = *a.In[blk.ID]
	} else {
		*st = a.ckpt[blk.ID][k-1]
	}
	for at := blk.Start + k*ckptStride; at < pc; at++ {
		transferRec(st, &a.CFG.Plan.Recs[at], at)
	}
	return true
}

// Interpret runs the abstract interpreter over the CFG to a fixpoint
// and returns the converged states. proc supplies the memory size for
// address-range findings.
func (c *CFG) Interpret(proc *procgen.Processor) *AbsResult {
	res := &AbsResult{
		CFG:      c,
		In:       make([]*RegState, len(c.Blocks)),
		deadEdge: make(map[edgeRef]bool),
		memBytes: int64(proc.Config.MemBytes),
	}
	if len(c.Blocks) == 0 {
		return res
	}

	_, isBack := c.backEdges()
	isHeader := make([]bool, len(c.Blocks))
	for ref := range isBack {
		isHeader[c.Blocks[ref.from].Succs[ref.idx].To] = true
	}

	entry := c.Entry().ID
	res.In[entry] = entryState()

	joins := make([]int, len(c.Blocks))
	inQueue := make([]bool, len(c.Blocks))
	queue := []int{entry}
	inQueue[entry] = true

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		inQueue[id] = false

		blk := c.Blocks[id]
		out := *res.In[id]
		for pc := blk.Start; pc < blk.End; pc++ {
			transferRec(&out, &c.Plan.Recs[pc], pc)
		}
		for i, e := range blk.Succs {
			if e.To == ExitID {
				continue
			}
			refined := out
			if !refineEdge(&refined, c, blk, e.Kind) {
				continue // statically impossible edge
			}
			to := e.To
			if res.In[to] == nil {
				st := refined
				res.In[to] = &st
				joins[to] = 0
			} else {
				prev := *res.In[to]
				if !res.In[to].joinInto(&refined) {
					continue
				}
				// Widen only state growth carried by the loop's own back
				// edges. Growth arriving on forward edges stabilizes once
				// its source loop does; widening it away would destroy
				// bounds the enclosing loop maintains (e.g. an outer
				// induction variable that is invariant in the inner loop).
				if isBack[edgeRef{id, i}] {
					joins[to]++
					if isHeader[to] && joins[to] > widenThreshold {
						res.In[to].widenFrom(&prev)
						// re-check: widening may be a no-op rename
						if *res.In[to] == prev {
							continue
						}
					}
				}
			}
			if !inQueue[to] {
				inQueue[to] = true
				queue = append(queue, to)
			}
		}
	}

	// Narrowing: widening at one header can destroy bounds that belong to
	// an enclosing loop (the inner header sees the outer induction
	// variable change while the outer loop converges and widens it away).
	// From the widened post-fixpoint, re-applying the transfer recovers
	// such bounds: lfp ⊑ X implies lfp ⊑ F(X) by monotonicity, so every
	// round stays a sound over-approximation. A few rounds in reverse
	// postorder (reading already-narrowed predecessor states) suffice;
	// the cap guards against oscillation.
	rpo := c.ReversePostorder()
	for round := 0; round < narrowRounds; round++ {
		newIn := make([]*RegState, len(c.Blocks))
		stateOf := func(id int) *RegState {
			if newIn[id] != nil {
				return newIn[id]
			}
			return res.In[id]
		}
		for _, blk := range rpo {
			var acc *RegState
			if blk.ID == entry {
				e := entryState()
				acc = e
			}
			for _, pe := range blk.Preds {
				pin := stateOf(pe.From)
				if pin == nil {
					continue
				}
				pblk := c.Blocks[pe.From]
				out := *pin
				for pc := pblk.Start; pc < pblk.End; pc++ {
					transferRec(&out, &c.Plan.Recs[pc], pc)
				}
				if !refineEdge(&out, c, pblk, pe.Kind) {
					continue
				}
				if acc == nil {
					st := out
					acc = &st
				} else {
					acc.joinInto(&out)
				}
			}
			newIn[blk.ID] = acc
		}
		changed := false
		for id := range res.In {
			a, b := res.In[id], newIn[id]
			switch {
			case a == nil && b == nil:
			case a == nil || b == nil || *a != *b:
				changed = true
			}
		}
		res.In = newIn
		if !changed {
			break
		}
	}

	// Store the in-block checkpoints and the final dead-edge set from
	// the converged block states.
	res.ckpt = make([][]RegState, len(c.Blocks))
	for _, blk := range c.Blocks {
		if res.In[blk.ID] == nil {
			continue
		}
		ckpt := make([]RegState, 0, (blk.End-blk.Start-1)/ckptStride)
		out := *res.In[blk.ID]
		for pc := blk.Start; pc < blk.End; pc++ {
			if pc > blk.Start && (pc-blk.Start)%ckptStride == 0 {
				ckpt = append(ckpt, out)
			}
			transferRec(&out, &c.Plan.Recs[pc], pc)
		}
		res.ckpt[blk.ID] = ckpt
		for i, e := range blk.Succs {
			refined := out
			if !refineEdge(&refined, c, blk, e.Kind) {
				res.deadEdge[edgeRef{blk.ID, i}] = true
			}
		}
	}
	return res
}

// EdgeOut returns the abstract state flowing along successor edge idx of
// block from (the block's out-state refined by the edge's branch
// condition), or nil when the block is unreachable or the edge is dead.
func (a *AbsResult) EdgeOut(from, idx int) *RegState {
	if a.In[from] == nil || a.deadEdge[edgeRef{from, idx}] {
		return nil
	}
	blk := a.CFG.Blocks[from]
	last := blk.End - 1
	out := new(RegState)
	a.stateAt(last, out)
	transferRec(out, &a.CFG.Plan.Recs[last], last)
	if !refineEdge(out, a.CFG, blk, blk.Succs[idx].Kind) {
		return nil
	}
	return out
}

// refineEdge narrows st with the condition implied by taking an edge of
// the given kind out of blk, mirroring the exec-table branch semantics.
// It returns false when the condition is unsatisfiable under st (the
// edge cannot be taken).
func refineEdge(st *RegState, c *CFG, blk *Block, kind EdgeKind) bool {
	rec := &c.Plan.Recs[blk.End-1]
	if !rec.Valid {
		return true
	}
	in := rec.Instr
	switch kind {
	case EdgeTaken:
		return refineBranch(st, rec, true)
	case EdgeUntaken:
		return refineBranch(st, rec, false)
	case EdgeFall:
		if in.Op == isa.OpLOOPNEZ {
			// Entering the body implies the count register is nonzero.
			v, ok := st.get(in.Rs).meet(Itv{1, maxU32})
			if !ok {
				return false
			}
			st.set(in.Rs, v)
		}
	case EdgeLoopSkip:
		// LOOPNEZ skipped the body: the count register is zero.
		v, ok := st.get(in.Rs).meet(Itv{0, 0})
		if !ok {
			return false
		}
		st.set(in.Rs, v)
	}
	return true
}

// refineBranch narrows st with the outcome of the conditional branch in
// rec; returns false when that outcome is statically impossible.
func refineBranch(st *RegState, rec *plan.Rec, taken bool) bool {
	in := rec.Instr
	rs := st.get(in.Rs)

	// Same-register register-register compares decide unconditionally.
	if rec.Def.Format == isa.FormatBranchRR && in.Rs == in.Rt {
		switch in.Op {
		case isa.OpBEQ, isa.OpBGE, isa.OpBGEU, isa.OpBALL:
			return taken
		case isa.OpBNE, isa.OpBLT, isa.OpBLTU, isa.OpBNALL:
			return !taken
		case isa.OpBANY: // rs&rs != 0  <=>  rs != 0
			return refineNEZ(st, in.Rs, rs, taken)
		case isa.OpBNONE: // rs&rs == 0  <=>  rs == 0
			return refineNEZ(st, in.Rs, rs, !taken)
		}
		return true
	}

	switch in.Op {
	case isa.OpBEQZ:
		return refineNEZ(st, in.Rs, rs, !taken)
	case isa.OpBNEZ:
		return refineNEZ(st, in.Rs, rs, taken)
	case isa.OpBLTZ:
		if taken {
			return meetReg(st, in.Rs, Itv{signBit, maxU32})
		}
		return meetReg(st, in.Rs, Itv{0, signBit - 1})
	case isa.OpBGEZ:
		if taken {
			return meetReg(st, in.Rs, Itv{0, signBit - 1})
		}
		return meetReg(st, in.Rs, Itv{signBit, maxU32})
	case isa.OpBEQI:
		return refineEQ(st, in.Rs, itvConst(uint32(rec.SImm)), taken)
	case isa.OpBNEI:
		return refineEQ(st, in.Rs, itvConst(uint32(rec.SImm)), !taken)
	case isa.OpBLTI:
		return refineSignedLess(st, in.Rs, int64(rec.SImm), taken)
	case isa.OpBGEI:
		return refineSignedLess(st, in.Rs, int64(rec.SImm), !taken)
	case isa.OpBLTUI:
		return refineUnsignedLess(st, in.Rs, int64(in.Rt), taken)
	case isa.OpBGEUI:
		return refineUnsignedLess(st, in.Rs, int64(in.Rt), !taken)
	case isa.OpBBCI:
		// Taken means the bit is clear.
		return refineBit(rs, uint(in.Rt&31), taken)
	case isa.OpBBSI:
		return refineBit(rs, uint(in.Rt&31), !taken)
	case isa.OpBEQ:
		return refineEQRR(st, in.Rs, in.Rt, taken)
	case isa.OpBNE:
		return refineEQRR(st, in.Rs, in.Rt, !taken)
	case isa.OpBLT:
		return refineSignedLessRR(st, in.Rs, in.Rt, taken)
	case isa.OpBGE:
		return refineSignedLessRR(st, in.Rs, in.Rt, !taken)
	case isa.OpBLTU:
		return refineUnsignedLessRR(st, in.Rs, in.Rt, taken)
	case isa.OpBGEU:
		return refineUnsignedLessRR(st, in.Rs, in.Rt, !taken)
	case isa.OpBANY:
		rt := st.get(in.Rt)
		if rs.IsConst() && rt.IsConst() {
			return (uint32(rs.Lo)&uint32(rt.Lo) != 0) == taken
		}
		if taken && (rs == (Itv{0, 0}) || rt == (Itv{0, 0})) {
			return false
		}
	case isa.OpBNONE:
		rt := st.get(in.Rt)
		if rs.IsConst() && rt.IsConst() {
			return (uint32(rs.Lo)&uint32(rt.Lo) == 0) == taken
		}
		if !taken && (rs == (Itv{0, 0}) || rt == (Itv{0, 0})) {
			return false
		}
	case isa.OpBALL:
		rt := st.get(in.Rt)
		if rs.IsConst() && rt.IsConst() {
			return (uint32(rs.Lo)&uint32(rt.Lo) == uint32(rt.Lo)) == taken
		}
		if !taken && rt == (Itv{0, 0}) {
			return false // rs & 0 == 0 always holds
		}
	case isa.OpBNALL:
		rt := st.get(in.Rt)
		if rs.IsConst() && rt.IsConst() {
			return (uint32(rs.Lo)&uint32(rt.Lo) != uint32(rt.Lo)) == taken
		}
		if taken && rt == (Itv{0, 0}) {
			return false
		}
	}
	return true
}

func meetReg(st *RegState, r uint8, with Itv) bool {
	v, ok := st.get(r).meet(with)
	if !ok {
		return false
	}
	st.set(r, v)
	return true
}

// refineNEZ applies "r != 0" (nez=true) or "r == 0" (nez=false).
func refineNEZ(st *RegState, r uint8, v Itv, nez bool) bool {
	if !nez {
		return meetReg(st, r, Itv{0, 0})
	}
	if v.Lo == 0 {
		if v.Hi == 0 {
			return false
		}
		st.set(r, Itv{1, v.Hi})
	}
	return true
}

// refineEQ applies "r == k" (eq=true) or "r != k" against a constant.
func refineEQ(st *RegState, r uint8, k Itv, eq bool) bool {
	v := st.get(r)
	if eq {
		return meetReg(st, r, k)
	}
	if v.IsConst() && v == k {
		return false
	}
	if v.Lo == k.Lo && v.Lo < v.Hi {
		st.set(r, Itv{v.Lo + 1, v.Hi})
	} else if v.Hi == k.Hi && v.Lo < v.Hi {
		st.set(r, Itv{v.Lo, v.Hi - 1})
	}
	return true
}

// refineSignedLess applies "signed(r) < k" (less=true) or ">= k".
func refineSignedLess(st *RegState, r uint8, k int64, less bool) bool {
	v := st.get(r)
	lo, hi, ok := v.signedView()
	if !ok {
		return true // straddles the sign boundary: no refinement
	}
	if less {
		hi = min64(hi, k-1)
	} else {
		lo = max64(lo, k)
	}
	nv, ok := fromSigned(lo, hi)
	if lo > hi {
		return false
	}
	if ok {
		st.set(r, nv)
	}
	return true
}

// refineUnsignedLess applies "r < k" (less=true) or "r >= k".
func refineUnsignedLess(st *RegState, r uint8, k int64, less bool) bool {
	if less {
		if k == 0 {
			return false
		}
		return meetReg(st, r, Itv{0, k - 1})
	}
	return meetReg(st, r, Itv{k, maxU32})
}

// refineBit decides a single-bit test where the interval allows:
// clear=true asserts bit b of v is 0.
func refineBit(v Itv, b uint, clear bool) bool {
	mask := int64(1) << b
	if v.IsConst() {
		return (v.Lo&mask == 0) == clear
	}
	if v.Hi < mask {
		return clear // bit provably 0
	}
	if v.Lo >= mask && v.Hi < mask<<1 {
		return !clear // bit provably 1
	}
	return true
}

func refineEQRR(st *RegState, rRs, rRt uint8, eq bool) bool {
	rs, rt := st.get(rRs), st.get(rRt)
	if eq {
		m, ok := rs.meet(rt)
		if !ok {
			return false
		}
		st.set(rRs, m)
		st.set(rRt, m)
		return true
	}
	if rs.IsConst() && rt.IsConst() {
		return rs.Lo != rt.Lo
	}
	if rt.IsConst() {
		return refineEQ(st, rRs, rt, false)
	}
	if rs.IsConst() {
		return refineEQ(st, rRt, rs, false)
	}
	return true
}

func refineSignedLessRR(st *RegState, rRs, rRt uint8, less bool) bool {
	rs, rt := st.get(rRs), st.get(rRt)
	sLo, sHi, okS := rs.signedView()
	tLo, tHi, okT := rt.signedView()
	if !okS || !okT {
		return true
	}
	if less {
		if sLo >= tHi {
			return false
		}
		if nv, ok := fromSigned(sLo, min64(sHi, tHi-1)); ok {
			st.set(rRs, nv)
		}
		if nv, ok := fromSigned(max64(tLo, sLo+1), tHi); ok {
			st.set(rRt, nv)
		}
	} else {
		if sHi < tLo {
			return false
		}
		if nv, ok := fromSigned(max64(sLo, tLo), sHi); ok {
			st.set(rRs, nv)
		}
		if nv, ok := fromSigned(tLo, min64(tHi, sHi)); ok {
			st.set(rRt, nv)
		}
	}
	return true
}

func refineUnsignedLessRR(st *RegState, rRs, rRt uint8, less bool) bool {
	rs, rt := st.get(rRs), st.get(rRt)
	if less {
		if rs.Lo >= rt.Hi {
			return false
		}
		if v, ok := rs.meet(Itv{0, rt.Hi - 1}); ok {
			st.set(rRs, v)
		}
		if v, ok := rt.meet(Itv{rs.Lo + 1, maxU32}); ok {
			st.set(rRt, v)
		}
	} else {
		if rs.Hi < rt.Lo {
			return false
		}
		if v, ok := rs.meet(Itv{rt.Lo, maxU32}); ok {
			st.set(rRs, v)
		}
		if v, ok := rt.meet(Itv{0, rs.Hi}); ok {
			st.set(rRt, v)
		}
	}
	return true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// transferRec applies the abstract semantics of the instruction at pc to
// st. Precise transfers mirror the iss exec table; everything else
// (loads of unknown memory, custom instructions, mixed-sign shifts)
// degrades each architecturally written register to top via the plan's
// register-port model, which is always sound.
func transferRec(st *RegState, rec *plan.Rec, pc int) {
	in := rec.Instr
	if !rec.Valid || in.IsCustom() {
		clobber(st, rec)
		return
	}
	rs := st.get(in.Rs)
	rt := st.get(in.Rt)
	imm := int64(uint32(in.Imm)) // the wrapped unsigned view of the immediate

	switch in.Op {
	case isa.OpADD:
		st.set(in.Rd, modAdd(rs, rt))
	case isa.OpADDI:
		st.set(in.Rd, modAdd(rs, Itv{imm, imm}))
	case isa.OpSUB:
		st.set(in.Rd, modSub(rs, rt))
	case isa.OpNEG:
		st.set(in.Rd, modSub(Itv{0, 0}, rs))
	case isa.OpMOVI:
		st.set(in.Rd, Itv{imm, imm})
	case isa.OpMOV:
		st.set(in.Rd, rs)
	case isa.OpAND:
		st.set(in.Rd, bitAnd(rs, rt))
	case isa.OpANDI:
		st.set(in.Rd, bitAnd(rs, Itv{imm, imm}))
	case isa.OpOR:
		st.set(in.Rd, bitOr(rs, rt))
	case isa.OpORI:
		st.set(in.Rd, bitOr(rs, Itv{imm, imm}))
	case isa.OpXOR:
		st.set(in.Rd, bitXor(rs, rt))
	case isa.OpXORI:
		st.set(in.Rd, bitXor(rs, Itv{imm, imm}))
	case isa.OpNOT:
		st.set(in.Rd, Itv{maxU32 - rs.Hi, maxU32 - rs.Lo})
	case isa.OpSLL:
		if rt.IsConst() {
			st.set(in.Rd, shiftLeft(rs, uint(rt.Lo&31)))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpSLLI:
		st.set(in.Rd, shiftLeft(rs, uint(imm&31)))
	case isa.OpSRL:
		if rt.IsConst() {
			st.set(in.Rd, Itv{rs.Lo >> uint(rt.Lo&31), rs.Hi >> uint(rt.Lo&31)})
		} else {
			st.set(in.Rd, Itv{0, rs.Hi}) // right shifts never grow the value
		}
	case isa.OpSRLI:
		st.set(in.Rd, Itv{rs.Lo >> uint(imm&31), rs.Hi >> uint(imm&31)})
	case isa.OpSRA:
		if rt.IsConst() {
			st.set(in.Rd, shiftRightArith(rs, uint(rt.Lo&31)))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpSRAI:
		st.set(in.Rd, shiftRightArith(rs, uint(imm&31)))
	case isa.OpSLT:
		st.set(in.Rd, cmpItv(signedLessItv(rs, rt)))
	case isa.OpSLTI:
		st.set(in.Rd, cmpItv(signedLessItv(rs, itvConst(uint32(in.Imm)))))
	case isa.OpSLTU:
		st.set(in.Rd, cmpItv(unsignedLessItv(rs, rt)))
	case isa.OpSLTIU:
		st.set(in.Rd, cmpItv(unsignedLessItv(rs, Itv{imm, imm})))
	case isa.OpMOVEQZ:
		st.set(in.Rd, cmovItv(st.get(in.Rd), rs, eqzDec(rt)))
	case isa.OpMOVNEZ:
		st.set(in.Rd, cmovItv(st.get(in.Rd), rs, -eqzDec(rt)))
	case isa.OpMOVLTZ:
		st.set(in.Rd, cmovItv(st.get(in.Rd), rs, ltzDec(rt)))
	case isa.OpMOVGEZ:
		st.set(in.Rd, cmovItv(st.get(in.Rd), rs, -ltzDec(rt)))
	case isa.OpMUL:
		// Division-form guard: the product bound itself can overflow
		// int64 when both operands approach 2^32.
		if rs.Hi == 0 || rt.Hi == 0 || rs.Hi <= maxU32/rt.Hi {
			st.set(in.Rd, Itv{rs.Lo * rt.Lo, rs.Hi * rt.Hi})
		} else if rs.IsConst() && rt.IsConst() {
			st.set(in.Rd, itvConst(uint32(rs.Lo)*uint32(rt.Lo)))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpMULH:
		if rs.IsConst() && rt.IsConst() {
			v := uint32(uint64(int64(int32(uint32(rs.Lo)))*int64(int32(uint32(rt.Lo)))) >> 32)
			st.set(in.Rd, itvConst(v))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpMULHU:
		st.set(in.Rd, Itv{
			int64(uint64(rs.Lo) * uint64(rt.Lo) >> 32),
			int64(uint64(rs.Hi) * uint64(rt.Hi) >> 32),
		})
	case isa.OpMINU:
		st.set(in.Rd, Itv{min64(rs.Lo, rt.Lo), min64(rs.Hi, rt.Hi)})
	case isa.OpMAXU:
		st.set(in.Rd, Itv{max64(rs.Lo, rt.Lo), max64(rs.Hi, rt.Hi)})
	case isa.OpMIN:
		if rs.Hi < signBit && rt.Hi < signBit {
			st.set(in.Rd, Itv{min64(rs.Lo, rt.Lo), min64(rs.Hi, rt.Hi)})
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpMAX:
		if rs.Hi < signBit && rt.Hi < signBit {
			st.set(in.Rd, Itv{max64(rs.Lo, rt.Lo), max64(rs.Hi, rt.Hi)})
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpABS:
		st.set(in.Rd, absItv(rs))
	case isa.OpSEXT8:
		if rs.Hi <= 127 {
			st.set(in.Rd, rs)
		} else if rs.IsConst() {
			st.set(in.Rd, itvConst(uint32(int32(int8(uint32(rs.Lo))))))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpSEXT16:
		if rs.Hi <= 32767 {
			st.set(in.Rd, rs)
		} else if rs.IsConst() {
			st.set(in.Rd, itvConst(uint32(int32(int16(uint32(rs.Lo))))))
		} else {
			st.set(in.Rd, itvTop())
		}
	case isa.OpCLAMPS:
		st.set(in.Rd, clampsItv(rs, in.Imm))
	case isa.OpNSA:
		if rs.IsConst() {
			st.set(in.Rd, itvConst(nsaConst(uint32(rs.Lo))))
		} else {
			st.set(in.Rd, Itv{0, 31})
		}
	case isa.OpNSAU:
		if rs.IsConst() {
			st.set(in.Rd, itvConst(uint32(bits.LeadingZeros32(uint32(rs.Lo)))))
		} else {
			st.set(in.Rd, Itv{0, 32})
		}
	case isa.OpEXTUI:
		shift := uint(imm) & 31
		width := (uint(imm)>>5)&31 + 1
		mask := int64(1)<<width - 1
		if rs.IsConst() {
			st.set(in.Rd, itvConst(uint32((rs.Lo>>shift)&mask)))
		} else {
			st.set(in.Rd, Itv{0, min64(mask, rs.Hi>>shift)})
		}
	case isa.OpL8UI:
		st.set(in.Rd, Itv{0, 255})
	case isa.OpL16UI:
		st.set(in.Rd, Itv{0, 65535})
	case isa.OpCALL, isa.OpCALLX:
		st.set(0, itvConst(uint32(pc+1)))
	case isa.OpNOP, isa.OpJ, isa.OpJX, isa.OpRET,
		isa.OpLOOP, isa.OpLOOPNEZ,
		isa.OpS8I, isa.OpS16I, isa.OpS32I:
		// no register writes
	default:
		// Branches write nothing (empty write mask); sign-extending and
		// word loads write an unknown value.
		clobber(st, rec)
	}
}

// clobber tops every architecturally written register of rec.
func clobber(st *RegState, rec *plan.Rec) {
	w := rec.Use.Writes
	for w != 0 {
		r := uint8(trailingZeros64(w))
		st.R[r] = itvTop()
		w &= w - 1
	}
}

func trailingZeros64(v uint64) int { return bits.TrailingZeros64(v) }

func nsaConst(v uint32) uint32 {
	x := v
	if int32(v) < 0 {
		x = ^v
	}
	if x == 0 {
		return 31
	}
	return uint32(bits.LeadingZeros32(x)) - 1
}

// cmpItv turns a three-valued comparison into a {0,1}-interval.
func cmpItv(t int) Itv {
	switch t {
	case +1:
		return Itv{1, 1}
	case -1:
		return Itv{0, 0}
	}
	return Itv{0, 1}
}

// signedLessItv decides signed(a) < signed(b) over intervals:
// +1 definitely true, -1 definitely false, 0 unknown.
func signedLessItv(a, b Itv) int {
	aLo, aHi, okA := a.signedView()
	bLo, bHi, okB := b.signedView()
	if !okA || !okB {
		return 0
	}
	if aHi < bLo {
		return +1
	}
	if aLo >= bHi {
		return -1
	}
	return 0
}

func unsignedLessItv(a, b Itv) int {
	if a.Hi < b.Lo {
		return +1
	}
	if a.Lo >= b.Hi {
		return -1
	}
	return 0
}

// cmovItv models a conditional move given a three-valued condition
// decision (+1 holds for every value of rt, -1 fails for every value,
// 0 undecided): rd keeps its old value when the condition fails, takes
// rs when it holds, joins both when undecided.
func cmovItv(old, rs Itv, dec int) Itv {
	switch dec {
	case +1:
		return rs
	case -1:
		return old
	}
	return old.join(rs)
}

// eqzDec decides "v == 0" over an interval: +1 always, -1 never, 0 unknown.
func eqzDec(v Itv) int {
	if v == (Itv{0, 0}) {
		return +1
	}
	if v.Lo >= 1 {
		return -1
	}
	return 0
}

// ltzDec decides "signed(v) < 0" over an interval.
func ltzDec(v Itv) int {
	if v.Lo >= signBit {
		return +1
	}
	if v.Hi < signBit {
		return -1
	}
	return 0
}

func shiftLeft(a Itv, k uint) Itv {
	hi := a.Hi << k
	if hi <= maxU32 {
		return Itv{a.Lo << k, hi}
	}
	if a.IsConst() {
		return itvConst(uint32(a.Lo) << k)
	}
	return itvTop()
}

func shiftRightArith(a Itv, k uint) Itv {
	lo, hi, ok := a.signedView()
	if !ok {
		return itvTop()
	}
	nv, ok2 := fromSigned(lo>>k, hi>>k)
	if !ok2 {
		return itvTop()
	}
	return nv
}

func absItv(a Itv) Itv {
	lo, hi, ok := a.signedView()
	if !ok {
		return Itv{0, signBit} // |x| <= 2^31 always
	}
	if lo >= 0 {
		return a
	}
	// entirely negative: |x| = -x, anti-monotone
	return Itv{-hi, -lo}
}

func clampsItv(a Itv, bitsImm int32) Itv {
	b := bitsImm
	if b < 1 {
		b = 1
	}
	if b > 31 {
		b = 31
	}
	maxV := int64(1)<<(b-1) - 1
	minV := -(int64(1) << (b - 1))
	lo, hi, ok := a.signedView()
	if !ok {
		// Result always lies in the clamp range.
		nv, _ := fromSigned(minV, maxV)
		return nv
	}
	clamp := func(v int64) int64 {
		if v > maxV {
			return maxV
		}
		if v < minV {
			return minV
		}
		return v
	}
	nv, ok2 := fromSigned(clamp(lo), clamp(hi))
	if !ok2 {
		return itvTop()
	}
	return nv
}

// bitAnd/bitOr/bitXor: exact on constants, bit-length bounded otherwise.
func bitAnd(a, b Itv) Itv {
	if a.IsConst() && b.IsConst() {
		return itvConst(uint32(a.Lo) & uint32(b.Lo))
	}
	return Itv{0, min64(a.Hi, b.Hi)}
}

func bitOr(a, b Itv) Itv {
	if a.IsConst() && b.IsConst() {
		return itvConst(uint32(a.Lo) | uint32(b.Lo))
	}
	// a|b never exceeds 2^L - 1 where L is the wider operand's bit length.
	n := int64(1) << uint(max64(int64(bitLen(a.Hi)), int64(bitLen(b.Hi))))
	return Itv{max64(a.Lo, b.Lo), min64(maxU32, n-1)}
}

func bitXor(a, b Itv) Itv {
	if a.IsConst() && b.IsConst() {
		return itvConst(uint32(a.Lo) ^ uint32(b.Lo))
	}
	n := int64(1) << uint(max64(int64(bitLen(a.Hi)), int64(bitLen(b.Hi))))
	return Itv{0, min64(maxU32, n-1)}
}

// analyzeValues runs the abstract interpreter and reports value-aware
// findings: statically dead branch edges, zero-trip and effectively
// non-terminating zero-overhead loops, and memory accesses whose every
// possible address faults. Severities are calibrated so only definite
// bugs warn: a dead edge or a skipped LOOPNEZ body is legal (if wasteful)
// code, while an always-faulting access or a 2^32-iteration LOOP is a
// bug on every execution that reaches it.
func analyzeValues(r *Report, proc *procgen.Processor) {
	abs := r.CFG.Interpret(proc)
	r.Abs = abs
	pl := r.CFG.Plan

	for _, blk := range r.CFG.Blocks {
		if abs.In[blk.ID] == nil {
			continue
		}
		// Dead conditional edges: report once per branch site. Indirect
		// edges are skipped (their target sets are over-approximated, so
		// dead members are expected, not informative).
		var deadKinds []string
		for i, e := range blk.Succs {
			if !abs.deadEdge[edgeRef{blk.ID, i}] {
				continue
			}
			switch e.Kind {
			case EdgeTaken, EdgeUntaken, EdgeLoopSkip:
				deadKinds = append(deadKinds, e.Kind.String())
			}
		}
		if len(deadKinds) > 0 {
			pc := blk.End - 1
			rec := &pl.Recs[pc]
			r.add("absint-dead-edge", SevNote, pc, int(rec.Instr.Rs),
				"branch direction statically decided: %s edge can never be taken (%s)",
				deadKinds[0], describeItv(abs, pc, rec.Instr.Rs))
		}
	}

	for _, l := range r.CFG.Loops {
		st := abs.StateAt(l.At)
		if st == nil {
			continue
		}
		in := pl.Recs[l.At].Instr
		cnt := st.get(in.Rs)
		if in.Op == isa.OpLOOPNEZ && cnt == (Itv{0, 0}) {
			r.add("absint-zero-trip", SevNote, l.At, int(in.Rs),
				"LOOPNEZ count register a%d is always 0: body [%d,%d) never executes",
				in.Rs, l.Begin, l.End)
		}
		if in.Op == isa.OpLOOP && cnt == (Itv{0, 0}) {
			r.add("absint-loop-forever", SevWarn, l.At, int(in.Rs),
				"LOOP count register a%d is always 0: the hardware loops 2^32 times (effectively forever)",
				in.Rs)
		}
	}

	// Memory accesses: one running state per block, in pc order.
	for _, blk := range r.CFG.Blocks {
		if abs.In[blk.ID] == nil {
			continue
		}
		st := *abs.In[blk.ID]
		for pc := blk.Start; pc < blk.End; pc++ {
			rec := &pl.Recs[pc]
			checkAccess(r, abs.memBytes, pc, rec, &st)
			transferRec(&st, rec, pc)
		}
	}
}

// checkAccess reports a load or store at pc whose every possible address
// under st is out of RAM or misaligned.
func checkAccess(r *Report, memBytes int64, pc int, rec *plan.Rec, st *RegState) {
	if !rec.Valid {
		return
	}
	var addr Itv
	var size int64
	switch rec.Def.Class {
	case isa.ClassLoad:
		size = loadStoreSize(rec.Instr.Op)
		if rec.Instr.Op == isa.OpL32R {
			addr = itvConst(uint32(rec.Instr.Imm))
		} else {
			addr = modAdd(st.get(rec.Instr.Rs), itvConst(uint32(rec.Instr.Imm)))
		}
	case isa.ClassStore:
		size = loadStoreSize(rec.Instr.Op)
		addr = modAdd(st.get(rec.Instr.Rs), itvConst(uint32(rec.Instr.Imm)))
	default:
		return
	}
	switch {
	case addr.Lo > memBytes-size:
		r.add("absint-mem-range", SevWarn, pc, int(rec.Instr.Rs),
			"%s address is always out of RAM: addr in %v, memory is %d bytes",
			rec.Instr.Op.Name(), addr, memBytes)
	case addr.IsConst() && addr.Lo%size != 0:
		r.add("absint-mem-range", SevWarn, pc, int(rec.Instr.Rs),
			"%s address %d is always misaligned for a %d-byte access",
			rec.Instr.Op.Name(), addr.Lo, size)
	}
}

func describeItv(abs *AbsResult, pc int, r uint8) string {
	st := abs.StateAt(pc)
	if st == nil {
		return "unreachable"
	}
	return fmt.Sprintf("a%d in %v", r, st.get(r))
}

func loadStoreSize(op isa.Opcode) int64 {
	switch op {
	case isa.OpL8UI, isa.OpL8SI, isa.OpS8I:
		return 1
	case isa.OpL16UI, isa.OpL16SI, isa.OpS16I:
		return 2
	}
	return 4
}
