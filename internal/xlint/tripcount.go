package xlint

// Trip-count inference: turning the abstract interpreter's converged
// register intervals into finite bounds on back-edge traversals. Three
// structural patterns cover the corpus:
//
//   - zero-overhead hardware loops: the LOOP/LOOPNEZ count register's
//     interval at the setup instruction bounds body executions exactly;
//   - latch-tested counted loops ("addi r,r,-1; bnez r, head" and the
//     blt/bge up/down-counted variants): the induction step plus the
//     register's interval at the preheader bound taken-latch executions;
//   - header-tested loops ("head: beqz r, done; ...; addi r,r,1;
//     j head"): same induction reasoning with the test before the step.
//
// Every inference is guarded: a single latch per header, exactly one
// induction write (an ADDI with Rd == Rs, recognized via the plan's
// value-flow metadata) located in the latch block, a loop-invariant
// bound register, no inner cycle re-executing the latch block, and
// sign-safe arithmetic. Any guard failure degrades to an unbounded
// trip count — never to a wrong finite one. Lower bounds additionally
// require the loop to be single-exit (so no iteration can leave early)
// and its header to lie on every entry→exit path (so the loop cannot
// be bypassed entirely); otherwise the lower bound is 0, which is
// always sound for BCEC.

import (
	"math"

	"xtenergy/internal/isa"
	"xtenergy/internal/plan"
)

// Trip bounds the total number of traversals of one back edge over a
// whole program invocation. Hi is +Inf when no finite bound could be
// inferred. The slice returned by inferTrips is index-aligned with
// CFG.backEdges() and therefore with PathBounds' Loops.
type Trip struct {
	Lo, Hi float64
	// Source names the inference that produced the bound: "hwloop",
	// "latch-dec", "latch-cmp", "header-test", "nested" (a finite
	// per-entry bound scaled by enclosing loops), "unreachable", or
	// "unbounded".
	Source string
}

// inferTrips bounds every back edge of the CFG using the converged
// abstract states in abs.
func inferTrips(cfg *CFG, abs *AbsResult) []Trip {
	refs, isBack := cfg.backEdges()
	out := make([]Trip, len(refs))
	if len(refs) == 0 {
		return out
	}

	headers := make([]int, len(refs))
	lsets := make([]map[int]bool, len(refs))
	latches := make(map[int]int)
	for i, ref := range refs {
		headers[i] = cfg.Blocks[ref.from].Succs[ref.idx].To
		lsets[i] = naturalLoop(cfg, ref.from, headers[i])
		latches[headers[i]]++
	}

	type pe struct {
		lo, hi     float64
		src        string
		singleExit bool
	}
	per := make([]pe, len(refs))
	for i, ref := range refs {
		e := cfg.Blocks[ref.from].Succs[ref.idx]
		if abs.In[ref.from] == nil || abs.deadEdge[ref] {
			per[i] = pe{0, 0, "unreachable", true}
			continue
		}
		if e.Kind == EdgeLoopBack {
			lo, hi := hwLoopTrips(cfg, abs, headers[i])
			per[i] = pe{lo, hi, "hwloop", true}
			continue
		}
		lo, hi, src, single := branchTrips(cfg, abs, refs, isBack, lsets, latches, headers, i)
		per[i] = pe{lo, hi, src, single}
	}

	// Totals: a per-entry bound multiplies by (trips+1) of every strictly
	// enclosing loop (each pass of an enclosing body re-enters this one
	// at most once). Lower bounds survive only for single-exit loops
	// whose header no halting execution can bypass.
	for i := range refs {
		p := per[i]
		hi := p.hi
		src := p.src
		if hi > 0 && !math.IsInf(hi, 1) {
			for j := range refs {
				if j == i || !containsAll(lsets[j], lsets[i]) {
					continue
				}
				if math.IsInf(per[j].hi, 1) {
					hi = math.Inf(1)
					src = "unbounded"
					break
				}
				if per[j].hi > 0 {
					hi *= per[j].hi + 1
					src = "nested"
				}
			}
		}
		lo := p.lo
		if !p.singleExit || !headerMandatory(cfg, headers[i]) {
			lo = 0
		}
		out[i] = Trip{Lo: lo, Hi: hi, Source: src}
	}
	return out
}

// naturalLoop returns the blocks of the natural loop of back edge S→H:
// H plus every block that reaches S without passing through H.
func naturalLoop(cfg *CFG, s, h int) map[int]bool {
	l := map[int]bool{h: true}
	if s == h {
		return l
	}
	l[s] = true
	stack := []int{s}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range cfg.Blocks[id].Preds {
			if !l[e.From] {
				l[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}
	return l
}

// containsAll reports sup ⊇ sub.
func containsAll(sup, sub map[int]bool) bool {
	if len(sup) < len(sub) {
		return false
	}
	for id := range sub {
		if !sup[id] {
			return false
		}
	}
	return true
}

// headerMandatory reports whether every entry→exit path of the full CFG
// passes through block h — the condition under which a loop's per-entry
// lower bound survives as a whole-invocation lower bound.
func headerMandatory(cfg *CFG, h int) bool {
	entry := cfg.Entry().ID
	if entry == h {
		return true
	}
	seen := make([]bool, len(cfg.Blocks))
	stack := []int{entry}
	seen[entry] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range cfg.Blocks[id].Succs {
			if e.To == ExitID {
				return false // exit reachable without visiting h
			}
			if e.To != h && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return true
}

// hwLoopTrips bounds the LoopBack edge into header block h: body
// executions are the count register's value at the LOOP site (2^32 when
// LOOP sees zero), so traversals are one fewer.
func hwLoopTrips(cfg *CFG, abs *AbsResult, h int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	found := false
	for _, l := range cfg.Loops {
		if l.Begin >= len(cfg.byPC) || cfg.byPC[l.Begin] != h {
			continue
		}
		st := abs.StateAt(l.At)
		if st == nil {
			continue // this setup site never executes
		}
		in := cfg.Plan.Recs[l.At].Instr
		cnt := st.get(in.Rs)
		var cLo, cHi float64
		if in.Op == isa.OpLOOPNEZ {
			// The body (and hence the back edge) is only reached when the
			// count was nonzero.
			v, ok := cnt.meet(Itv{1, maxU32})
			if !ok {
				cLo, cHi = 0, 0
			} else {
				cLo, cHi = float64(v.Lo-1), float64(v.Hi-1)
			}
		} else {
			switch {
			case cnt.Lo >= 1:
				cLo, cHi = float64(cnt.Lo-1), float64(cnt.Hi-1)
			case cnt == Itv{0, 0}:
				cLo, cHi = float64(maxU32), float64(maxU32) // LOOP 0: 2^32 iterations
			default:
				cLo, cHi = 0, float64(maxU32)
			}
		}
		found = true
		lo = math.Min(lo, cLo)
		hi = math.Max(hi, cHi)
	}
	if !found {
		return 0, 0 // no live setup site: the redirect can never arm
	}
	return lo, hi
}

// contCond is the loop-continuation condition on the induction register:
// the loop keeps iterating while the condition holds.
type contCond struct {
	kind   uint8 // ccNEZ: r != 0; ccLT: r < K; ccGE: r >= K
	signed bool
	k      Itv  // the bound K (constant interval, or the bound register's)
	ok     bool // condition recognized
}

const (
	ccNEZ = iota
	ccLT
	ccGE
)

// branchCont maps a conditional branch plus the continuing direction to
// a continuation condition on the branch's Rs register. kOf resolves the
// bound operand (register interval or immediate) for compares.
func branchCont(rec *plan.Rec, contTaken bool, kOf func(reg uint8) (Itv, bool)) contCond {
	in := rec.Instr
	kReg := func() (Itv, bool) { return kOf(in.Rt) }
	switch in.Op {
	case isa.OpBNEZ:
		if contTaken {
			return contCond{kind: ccNEZ, ok: true}
		}
	case isa.OpBEQZ:
		if !contTaken {
			return contCond{kind: ccNEZ, ok: true}
		}
	case isa.OpBLT, isa.OpBLTU:
		k, ok := kReg()
		if !ok {
			return contCond{}
		}
		if contTaken {
			return contCond{kind: ccLT, signed: in.Op == isa.OpBLT, k: k, ok: true}
		}
		return contCond{kind: ccGE, signed: in.Op == isa.OpBLT, k: k, ok: true}
	case isa.OpBGE, isa.OpBGEU:
		k, ok := kReg()
		if !ok {
			return contCond{}
		}
		if contTaken {
			return contCond{kind: ccGE, signed: in.Op == isa.OpBGE, k: k, ok: true}
		}
		return contCond{kind: ccLT, signed: in.Op == isa.OpBGE, k: k, ok: true}
	case isa.OpBLTI, isa.OpBGEI:
		k := itvConst(uint32(rec.SImm))
		lt := (in.Op == isa.OpBLTI) == contTaken
		if lt {
			return contCond{kind: ccLT, signed: true, k: k, ok: true}
		}
		return contCond{kind: ccGE, signed: true, k: k, ok: true}
	case isa.OpBLTUI, isa.OpBGEUI:
		k := itvConst(uint32(in.Rt))
		lt := (in.Op == isa.OpBLTUI) == contTaken
		if lt {
			return contCond{kind: ccLT, k: k, ok: true}
		}
		return contCond{kind: ccGE, k: k, ok: true}
	case isa.OpBGEZ:
		// continue while r >= 0 (signed): GE with K = 0.
		if contTaken {
			return contCond{kind: ccGE, signed: true, k: Itv{0, 0}, ok: true}
		}
	}
	return contCond{}
}

// branchTrips bounds back edge i (a Taken/Jump/Untaken latch) via the
// latch-test and header-test counted-loop patterns. It returns the
// per-entry traversal bounds, the pattern that matched, and whether the
// loop is single-exit (the condition for the lower bound to be real).
func branchTrips(cfg *CFG, abs *AbsResult, refs []edgeRef, isBack map[edgeRef]bool,
	lsets []map[int]bool, latches map[int]int, headers []int, i int) (lo, hi float64, src string, singleExit bool) {

	unbounded := func() (float64, float64, string, bool) { return 0, math.Inf(1), "unbounded", false }

	ref := refs[i]
	h := headers[i]
	l := lsets[i]
	if latches[h] > 1 {
		return unbounded() // another latch reaches the header without the step
	}
	sBlk := cfg.Blocks[ref.from]
	e := sBlk.Succs[ref.idx]

	// No inner cycle may contain the latch block (the induction step must
	// run exactly once per traversal).
	for j, other := range refs {
		if j == i {
			continue
		}
		if l[other.from] && headers[j] != h && l[headers[j]] && lsets[j][ref.from] {
			return unbounded()
		}
	}

	// Preheader interval of a register: join over the non-back entry
	// edges of the header.
	preheader := func(r uint8) (Itv, bool) {
		var v Itv
		live := false
		for _, pe := range cfg.Blocks[h].Preds {
			pref := edgeRef{pe.From, predEdgeIndex(cfg, pe)}
			if isBack[pref] {
				continue
			}
			st := abs.EdgeOut(pe.From, pref.idx)
			if st == nil {
				continue
			}
			if !live {
				v, live = st.get(r), true
			} else {
				v = v.join(st.get(r))
			}
		}
		return v, live
	}

	// Exits of the loop.
	var exits []edgeRef
	for id := range l {
		for idx, se := range cfg.Blocks[id].Succs {
			if se.To == ExitID || !l[se.To] {
				exits = append(exits, edgeRef{id, idx})
			}
		}
	}

	// tryPattern validates the induction structure for a test at testPC
	// on register r with the given continuation condition and applies the
	// count formula. Whether the test observes pre- or post-step values
	// follows from the instruction positions: a step in the test's own
	// block always runs first (the test terminates the block), so every
	// test — including the first — sees the stepped value.
	tryPattern := func(rec *plan.Rec, testPC int, contTaken bool, expectExit edgeRef) (float64, float64, bool, bool) {
		in := rec.Instr
		r := in.Rs
		kOf := func(breg uint8) (Itv, bool) {
			// The bound register must be loop-invariant.
			if writesIn(cfg, l, breg) != 0 {
				return Itv{}, false
			}
			st := abs.StateAt(testPC)
			if st == nil {
				return Itv{}, false
			}
			return st.get(breg), true
		}
		cc := branchCont(rec, contTaken, kOf)
		if !cc.ok {
			return 0, 0, false, false
		}
		// Exactly one write to r inside the loop: an ADDI r, r, c in the
		// latch block.
		stepPC := -1
		for id := range l {
			blk := cfg.Blocks[id]
			for pc := blk.Start; pc < blk.End; pc++ {
				if cfg.Plan.Recs[pc].Use.Writes&(1<<r) == 0 {
					continue
				}
				if stepPC >= 0 {
					return 0, 0, false, false
				}
				stepPC = pc
			}
		}
		if stepPC < 0 || cfg.byPC[stepPC] != ref.from {
			return 0, 0, false, false
		}
		srec := &cfg.Plan.Recs[stepPC]
		if srec.Flow != plan.FlowAddImm || srec.Instr.Rd != r || srec.Instr.Rs != r {
			return 0, 0, false, false
		}
		c := int64(srec.FlowK)
		v0, live := preheader(r)
		if !live {
			return 0, 0, true, true // loop never entered
		}
		testAfterStep := cfg.byPC[stepPC] == cfg.byPC[testPC]
		klo, khi, ok := tripFormula(cc, v0, c, testAfterStep)
		if !ok {
			return 0, 0, false, false
		}
		single := len(exits) == 1 && exits[0] == expectExit
		return klo, khi, true, single
	}

	var results [][2]float64
	singleExit = false
	src = "unbounded"

	// Pattern A: the back edge is the taken side of the latch's own test.
	if e.Kind == EdgeTaken {
		rec := &cfg.Plan.Recs[sBlk.End-1]
		if rec.Valid && rec.Def.Class == isa.ClassBranch {
			// Expected sole exit: the untaken edge of the latch.
			expect := edgeRef{ref.from, -1}
			for idx, se := range sBlk.Succs {
				if se.Kind == EdgeUntaken {
					expect = edgeRef{ref.from, idx}
				}
			}
			if klo, khi, ok, single := tryPattern(rec, sBlk.End-1, true, expect); ok {
				results = append(results, [2]float64{klo, khi})
				singleExit = singleExit || single
				if src == "unbounded" {
					src = "latch-cmp"
					if rec.Instr.Op == isa.OpBNEZ {
						src = "latch-dec"
					}
				}
			}
		}
	}

	// Pattern B: the header block ends in a test with exactly one edge
	// leaving the loop; any latch kind works.
	hBlk := cfg.Blocks[h]
	hrec := &cfg.Plan.Recs[hBlk.End-1]
	if hrec.Valid && hrec.Def.Class == isa.ClassBranch {
		exitIdx, contIdx := -1, -1
		for idx, se := range hBlk.Succs {
			if se.Kind != EdgeTaken && se.Kind != EdgeUntaken {
				continue
			}
			if se.To == ExitID || !l[se.To] {
				if exitIdx >= 0 {
					exitIdx = -2 // both directions leave: not a loop test
				} else {
					exitIdx = idx
				}
			} else {
				contIdx = idx
			}
		}
		if exitIdx >= 0 && contIdx >= 0 {
			contTaken := hBlk.Succs[contIdx].Kind == EdgeTaken
			if klo, khi, ok, single := tryPattern(hrec, hBlk.End-1, contTaken, edgeRef{h, exitIdx}); ok {
				results = append(results, [2]float64{klo, khi})
				singleExit = singleExit || single
				if src == "unbounded" {
					src = "header-test"
				}
			}
		}
	}

	if len(results) == 0 {
		return unbounded()
	}
	// Multiple matching patterns bound the same count: intersect.
	lo, hi = results[0][0], results[0][1]
	for _, r := range results[1:] {
		lo = math.Max(lo, r[0])
		hi = math.Min(hi, r[1])
	}
	return lo, hi, src, singleExit
}

// predEdgeIndex recovers the successor index of a predecessor edge.
func predEdgeIndex(cfg *CFG, e Edge) int {
	for idx, se := range cfg.Blocks[e.From].Succs {
		if se == e {
			return idx
		}
	}
	return -1
}

// writesIn counts the instructions inside loop l that architecturally
// write register r.
func writesIn(cfg *CFG, l map[int]bool, r uint8) int {
	n := 0
	for id := range l {
		blk := cfg.Blocks[id]
		for pc := blk.Start; pc < blk.End; pc++ {
			if cfg.Plan.Recs[pc].Use.Writes&(1<<r) != 0 {
				n++
			}
		}
	}
	return n
}

// tripFormula counts back-edge traversals for induction value v0 (the
// preheader interval), step c per iteration, and continuation condition
// cc. testAfterStep: the test observes v0 + i*c after i steps (latch
// tests); otherwise v0 + i*c before step i+1 (header tests, where the
// traversal count equals the number of continuing tests).
func tripFormula(cc contCond, v0 Itv, c int64, testAfterStep bool) (lo, hi float64, ok bool) {
	max0 := func(v int64) float64 {
		if v < 0 {
			return 0
		}
		return float64(v)
	}
	switch cc.kind {
	case ccNEZ:
		if c == -1 {
			if testAfterStep {
				// t_i = v0 - i, taken while nonzero: v0 - 1 traversals,
				// but v0 = 0 wraps to ~2^32 — no bound unless v0 >= 1.
				if v0.Lo >= 1 {
					return float64(v0.Lo - 1), float64(v0.Hi - 1), true
				}
				return 0, 0, false
			}
			// Header test: v0 tests succeed before the value hits zero
			// exactly (any v0, no wrap possible).
			return float64(v0.Lo), float64(v0.Hi), true
		}
		if c < -1 && v0.IsConst() && v0.Lo%(-c) == 0 {
			n := v0.Lo / (-c)
			if testAfterStep {
				if n >= 1 {
					return float64(n - 1), float64(n - 1), true
				}
				return 0, 0, false
			}
			return float64(n), float64(n), true
		}
		return 0, 0, false
	case ccLT:
		if c < 1 {
			return 0, 0, false
		}
		a, b, ka, kb, okV := condViews(cc, v0)
		if !okV {
			return 0, 0, false
		}
		d := int64(0)
		if testAfterStep {
			d = 1
		}
		return max0(ceilDiv(ka-b, c) - d), max0(ceilDiv(kb-a, c) - d), true
	case ccGE:
		if c != -1 {
			return 0, 0, false
		}
		a, b, ka, kb, okV := condViews(cc, v0)
		if !okV {
			return 0, 0, false
		}
		if !cc.signed && ka < 1 {
			return 0, 0, false // unsigned >= 0 never exits: would wrap
		}
		d := int64(1)
		if testAfterStep {
			d = 0
		}
		return max0(a - kb + d), max0(b - ka + d), true
	}
	return 0, 0, false
}

// condViews resolves the numeric views of the induction start interval
// and the bound K under the condition's signedness; fails when a signed
// compare sees a sign-straddling interval.
func condViews(cc contCond, v0 Itv) (a, b, ka, kb int64, ok bool) {
	if cc.signed {
		a, b, ok = v0.signedView()
		if !ok {
			return
		}
		ka, kb, ok = cc.k.signedView()
		return
	}
	return v0.Lo, v0.Hi, cc.k.Lo, cc.k.Hi, true
}

func ceilDiv(x, c int64) int64 {
	if x <= 0 {
		return 0
	}
	return (x + c - 1) / c
}
