package xlint

import (
	"fmt"
	"math"

	"xtenergy/internal/core"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/pipeline"
	"xtenergy/internal/procgen"
)

// VarBounds is a per-execution interval of the 21 macro-model variables:
// any single execution of the associated block contributes between Lo[i]
// and Hi[i] to variable i. Most contributions are exact (Lo == Hi): the
// class cycles of almost every instruction are input independent. The
// interval sources are cache misses (0 or 1 per access), branch
// direction, RET/JX halting vs. redirecting, LOOPNEZ skipping a
// zero-trip body, and interlocks that only some entry paths guarantee.
type VarBounds struct {
	Lo, Hi core.Vars
}

func (v *VarBounds) addExact(i int, x float64) { v.Lo[i] += x; v.Hi[i] += x }
func (v *VarBounds) addRange(i int, lo, hi float64) {
	v.Lo[i] += lo
	v.Hi[i] += hi
}

// Bounds holds the static per-block variable intervals of a program.
type Bounds struct {
	CFG *CFG
	// Block[id] bounds one execution of block id.
	Block []VarBounds
}

// ComputeBounds derives per-execution macro-model variable intervals for
// every basic block of the CFG, mirroring the simulator's cost
// accounting instruction by instruction. It fails on programs whose
// custom instructions are not defined by proc's compiled extension (run
// Analyze first; it flags those as errors).
func ComputeBounds(cfg *CFG, proc *procgen.Processor) (*Bounds, error) {
	comp := proc.TIE
	pipe := pipeline.New()
	pl := cfg.Plan

	b := &Bounds{CFG: cfg, Block: make([]VarBounds, len(cfg.Blocks))}
	for _, blk := range cfg.Blocks {
		vb := &b.Block[blk.ID]
		for pc := blk.Start; pc < blk.End; pc++ {
			rec := &pl.Recs[pc]
			in := rec.Instr

			// Fetch: uncached fetches are certain; cached fetches may
			// miss the I-cache depending on history.
			if rec.Uncached {
				vb.addExact(core.VUncachedFetch, 1)
			} else {
				vb.addRange(core.VICacheMiss, 0, 1)
			}

			// Interlocks: an adjacent in-block pair stalls on every
			// execution; the block's first instruction stalls depending
			// on which predecessor path entered.
			if pc > blk.Start {
				prev := &pl.Recs[pc-1]
				if hazardBetween(prev.Use, rec.Use, prev.Instr.Rd, in.Rs, in.Rt) {
					vb.addExact(core.VInterlock, 1)
				}
			} else if guaranteed, possible := entryHazard(cfg, blk); guaranteed {
				vb.addExact(core.VInterlock, 1)
			} else if possible {
				vb.addRange(core.VInterlock, 0, 1)
			}

			if in.IsCustom() {
				ci := rec.CI
				if ci == nil {
					// Cold path: re-query the extension so the error wraps
					// the original cause, exactly as before.
					_, err := comp.Instruction(in.CustomID)
					return nil, fmt.Errorf("xlint: %s pc %d: %w", cfg.Prog.Name, pc, err)
				}
				lat := float64(ci.Latency)
				if rec.RegfileActive {
					vb.addExact(core.VCustomSideEffect, lat)
				}
				for k := 0; k < hwlib.NumCategories; k++ {
					vb.addExact(core.VCustomBase+k, float64(rec.CustomWeights[k]*lat))
				}
				continue
			}

			if !rec.Valid {
				return nil, fmt.Errorf("xlint: %s pc %d: invalid opcode %d", cfg.Prog.Name, pc, in.Op)
			}
			d := rec.Def
			// Base arithmetic retires tap the bus-latched custom
			// components for one cycle (Example 1's base-to-custom side
			// effect) — deterministic per retire.
			if pl.HasBusTaps && d.Class == isa.ClassArith {
				for k := 0; k < hwlib.NumCategories; k++ {
					vb.addExact(core.VCustomBase+k, pl.BusTap[k])
				}
			}

			cyc := float64(d.Cycles)
			switch {
			case in.Op == isa.OpLOOP:
				vb.addExact(core.VArith, cyc) // always enters the body
			case in.Op == isa.OpLOOPNEZ:
				// Entering costs 1 arith cycle; skipping a zero-trip body
				// is a taken-style redirect charged to arith.
				vb.addRange(core.VArith, cyc, cyc+float64(pipe.TakenPenalty))
			case in.Op == isa.OpJX || in.Op == isa.OpRET:
				// Halting through the sentinel costs the base cycle;
				// redirecting adds the jump penalty.
				vb.addRange(core.VJump, cyc, cyc+float64(pipe.JumpPenalty))
			case in.Op == isa.OpJ || in.Op == isa.OpCALL || in.Op == isa.OpCALLX:
				vb.addExact(core.VJump, cyc+float64(pipe.JumpPenalty))
			case d.Format == isa.FormatBranchRR || d.Format == isa.FormatBranchRI || d.Format == isa.FormatBranchR:
				// Exactly one of taken/untaken occurs per execution; the
				// per-variable intervals each admit the zero case.
				vb.addRange(core.VBranchTaken, 0, cyc+float64(pipe.TakenPenalty))
				vb.addRange(core.VBranchUntaken, 0, cyc)
			case d.Class == isa.ClassLoad:
				vb.addExact(core.VLoad, cyc)
				vb.addRange(core.VDCacheMiss, 0, 1)
			case d.Class == isa.ClassStore:
				vb.addExact(core.VStore, cyc)
				vb.addRange(core.VDCacheMiss, 0, 1)
			default:
				vb.addExact(core.VArith, cyc)
			}
		}
	}
	return b, nil
}

// EnergyInterval brackets the macro-model energy over a variable box:
// each coefficient picks whichever end of its variable's interval
// minimizes/maximizes its contribution, so negative coefficients are
// handled correctly.
func EnergyInterval(m *core.MacroModel, lo, hi core.Vars) (eLo, eHi float64) {
	for i, c := range m.Coef {
		a, b := c*lo[i], c*hi[i]
		eLo += math.Min(a, b)
		eHi += math.Max(a, b)
	}
	return eLo, eHi
}

// BlockEnergy returns each block's per-execution energy interval under
// the model.
func (b *Bounds) BlockEnergy(m *core.MacroModel) []Interval {
	out := make([]Interval, len(b.Block))
	for id, vb := range b.Block {
		lo, hi := EnergyInterval(m, vb.Lo, vb.Hi)
		out[id] = Interval{Lo: lo, Hi: hi}
	}
	return out
}

// Interval is a closed numeric interval.
type Interval struct{ Lo, Hi float64 }

// LoopTerm is the symbolic contribution of one CFG back edge: each
// additional traversal of the edge adds an energy amount within PerIter
// (the extremal acyclic path through the loop body, from the loop header
// back to the edge source).
type LoopTerm struct {
	// FromPC/HeaderPC identify the back edge by the first instruction of
	// its source and target blocks.
	FromPC, HeaderPC int
	PerIter          Interval
}

// PathReport is the static per-invocation energy bound: the energy of
// any halting execution lies in
//
//	Acyclic + Σ_i k_i · Loops[i].PerIter
//
// where k_i ≥ 0 is the (input-dependent) number of times execution
// traverses back edge i. Acyclic is the min/max over back-edge-free
// entry→exit paths.
type PathReport struct {
	Acyclic Interval
	Loops   []LoopTerm
}

// edgeRef identifies one CFG successor edge by source block ID and
// index into that block's Succs.
type edgeRef struct{ from, idx int }

// backEdges classifies the CFG's back edges with a DFS from the entry
// (gray-node detection). The returned slice is in deterministic DFS
// discovery order — PathBounds' loop terms and the trip-count engine's
// bounds are index-aligned through it — and the set holds the same refs
// for membership tests. Edges to unreachable blocks never execute and
// are not classified.
func (c *CFG) backEdges() ([]edgeRef, map[edgeRef]bool) {
	var refs []edgeRef
	isBack := make(map[edgeRef]bool)
	if len(c.Blocks) == 0 {
		return refs, isBack
	}
	color := make([]uint8, len(c.Blocks)) // 0 white, 1 gray, 2 black
	var dfs func(id int)
	dfs = func(id int) {
		color[id] = 1
		for i, e := range c.Blocks[id].Succs {
			if e.To == ExitID {
				continue
			}
			switch color[e.To] {
			case 0:
				dfs(e.To)
			case 1:
				ref := edgeRef{id, i}
				isBack[ref] = true
				refs = append(refs, ref)
			}
		}
		color[id] = 2
	}
	dfs(c.Entry().ID)
	return refs, isBack
}

// PathBounds computes the acyclic entry→exit energy interval and the
// per-back-edge symbolic loop terms under the model. It fails when no
// back-edge-free path from the entry reaches the exit (the program
// cannot halt without iterating, so no finite acyclic bound exists).
func (b *Bounds) PathBounds(m *core.MacroModel) (*PathReport, error) {
	cfg := b.CFG
	nb := len(cfg.Blocks)
	blockE := b.BlockEnergy(m)

	backEdges, isBack := cfg.backEdges()
	entry := cfg.Entry().ID

	// Topological order of the DAG that remains (reachable blocks only).
	var topo []int
	state := make([]uint8, nb)
	var order func(id int)
	order = func(id int) {
		state[id] = 1
		for i, e := range cfg.Blocks[id].Succs {
			if e.To == ExitID || isBack[edgeRef{id, i}] || state[e.To] != 0 {
				continue
			}
			order(e.To)
		}
		topo = append(topo, id) // postorder: successors first
	}
	order(entry)

	inf := math.Inf(1)
	// DP over the DAG: extremal path energy from each block to the exit.
	minTo := make([]float64, nb)
	maxTo := make([]float64, nb)
	for i := range minTo {
		minTo[i], maxTo[i] = inf, math.Inf(-1)
	}
	for _, id := range topo { // postorder = successors before predecessors
		sMin, sMax := inf, math.Inf(-1)
		for i, e := range cfg.Blocks[id].Succs {
			if isBack[edgeRef{id, i}] {
				continue
			}
			var lo, hi float64
			if e.To == ExitID {
				lo, hi = 0, 0
			} else {
				lo, hi = minTo[e.To], maxTo[e.To]
			}
			sMin = math.Min(sMin, lo)
			sMax = math.Max(sMax, hi)
		}
		minTo[id] = blockE[id].Lo + sMin
		maxTo[id] = blockE[id].Hi + sMax
	}
	if math.IsInf(minTo[entry], 1) {
		return nil, fmt.Errorf("xlint: %s: no acyclic path from entry to exit", cfg.Prog.Name)
	}

	rep := &PathReport{Acyclic: Interval{Lo: minTo[entry], Hi: maxTo[entry]}}

	// Per-back-edge loop terms: extremal DAG path from the loop header
	// to the edge source, inclusive of both endpoint blocks.
	for _, be := range backEdges {
		header := cfg.Blocks[be.from].Succs[be.idx].To
		minFrom := make([]float64, nb)
		maxFrom := make([]float64, nb)
		for i := range minFrom {
			minFrom[i], maxFrom[i] = inf, math.Inf(-1)
		}
		minFrom[header] = blockE[header].Lo
		maxFrom[header] = blockE[header].Hi
		for i := len(topo) - 1; i >= 0; i-- { // reverse postorder: preds first
			id := topo[i]
			if math.IsInf(minFrom[id], 1) && math.IsInf(maxFrom[id], -1) {
				continue
			}
			for j, e := range cfg.Blocks[id].Succs {
				if e.To == ExitID || isBack[edgeRef{id, j}] {
					continue
				}
				if v := minFrom[id] + blockE[e.To].Lo; v < minFrom[e.To] {
					minFrom[e.To] = v
				}
				if v := maxFrom[id] + blockE[e.To].Hi; v > maxFrom[e.To] {
					maxFrom[e.To] = v
				}
			}
		}
		term := LoopTerm{
			FromPC:   cfg.Blocks[be.from].Start,
			HeaderPC: cfg.Blocks[header].Start,
			PerIter:  Interval{Lo: minFrom[be.from], Hi: maxFrom[be.from]},
		}
		rep.Loops = append(rep.Loops, term)
	}
	return rep, nil
}
