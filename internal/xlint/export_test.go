package xlint

import (
	"fmt"

	"xtenergy/internal/core"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
)

// Contains reports whether v lies in the interval.
func (a Itv) Contains(v uint32) bool { return int64(v) >= a.Lo && int64(v) <= a.Hi }

// Check validates one dynamic register-file observation against the
// static state at pc: every register's value must lie inside its
// interval. It returns a descriptive error on the first violation —
// the soundness oracle that regShadow applies to every traced
// instruction.
func (a *AbsResult) Check(pc int, regs *[isa.NumRegs]uint32) error {
	var st RegState
	if !a.stateAt(pc, &st) {
		return fmt.Errorf("absint: pc %d executed but statically unreachable", pc)
	}
	for r := 0; r < isa.NumRegs; r++ {
		if !st.R[r].Contains(regs[r]) {
			return fmt.Errorf("absint: pc %d: a%d = %d outside %v", pc, r, regs[r], st.R[r])
		}
	}
	return nil
}

// InstantiateVars turns per-block intervals into whole-run variable
// bounds given per-block execution counts (len(counts) == len(Blocks)).
func (b *Bounds) InstantiateVars(counts []uint64) (lo, hi core.Vars, err error) {
	if len(counts) != len(b.Block) {
		return lo, hi, fmt.Errorf("xlint: %d block counts for %d blocks", len(counts), len(b.Block))
	}
	for id, vb := range b.Block {
		c := float64(counts[id])
		if c == 0 {
			continue
		}
		for i := 0; i < core.NumVars; i++ {
			lo[i] += c * vb.Lo[i]
			hi[i] += c * vb.Hi[i]
		}
	}
	return lo, hi, nil
}

// BlockCounter counts per-block executions from a streamed trace; plug
// its Sink into iss.Options.TraceSink to instantiate static bounds with
// the dynamic block counts of a concrete run.
type BlockCounter struct {
	cfg    *CFG
	counts []uint64
}

// NewBlockCounter returns a counter for this CFG.
func (c *CFG) NewBlockCounter() *BlockCounter {
	return &BlockCounter{cfg: c, counts: make([]uint64, len(c.Blocks))}
}

// Sink is an iss.Options.TraceSink that counts an execution of a block
// each time its leader instruction retires.
func (bc *BlockCounter) Sink(batch []iss.TraceEntry) error {
	for i := range batch {
		pc := int(batch[i].PC)
		if b := bc.cfg.BlockAt(pc); b != nil && b.Start == pc {
			bc.counts[b.ID]++
		}
	}
	return nil
}

// Counts returns the per-block execution counts accumulated so far.
func (bc *BlockCounter) Counts() []uint64 { return bc.counts }
