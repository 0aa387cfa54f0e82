package iss

import (
	"fmt"
	"strings"

	"xtenergy/internal/isa"
)

// NumBaseClasses is the number of dynamic base-instruction energy
// classes tracked by the macro-model (arith, load, store, jump,
// branch-taken, branch-untaken).
const NumBaseClasses = 6

// Base-class indices into Stats.ClassCycles, in the paper's Table I
// order.
const (
	CArith = iota
	CLoad
	CStore
	CJump
	CBranchTaken
	CBranchUntaken
)

// ClassName returns the display name of base-class index c.
func ClassName(c int) string {
	switch c {
	case CArith:
		return "arith"
	case CLoad:
		return "load"
	case CStore:
		return "store"
	case CJump:
		return "jump"
	case CBranchTaken:
		return "branch-taken"
	case CBranchUntaken:
		return "branch-untaken"
	}
	return fmt.Sprintf("class(%d)", c)
}

// Stats holds the execution statistics of one simulated program run —
// precisely the observables the energy macro-model is parameterized on
// (paper Section IV-B.1), plus bookkeeping useful for reports.
type Stats struct {
	// ClassCycles is the number of cycles taken by each base-instruction
	// class in the dynamic execution trace (N_ar, N_ld, N_st, N_j, N_bt,
	// N_bu), including control-flow penalty cycles attributed to the
	// redirecting instruction.
	ClassCycles [NumBaseClasses]uint64

	// Non-ideal-case event counts: N_icm, N_dcm, N_unc, N_ilk.
	ICacheMisses    uint64
	DCacheMisses    uint64
	UncachedFetches uint64
	Interlocks      uint64

	// CustomRegfileCycles is N_cir: cycles taken by custom instructions
	// that access the general register file (the custom-to-base side
	// effect).
	CustomRegfileCycles uint64

	// CustomCycles is the total number of cycles spent executing custom
	// instructions (their structural energy is captured by the
	// per-category variables from resource analysis).
	CustomCycles uint64

	// CustomExec counts executions per custom-instruction ID.
	CustomExec []uint64

	// Cycles is the total cycle count including all stalls.
	Cycles uint64
	// StallCycles is the portion of Cycles due to cache misses,
	// uncached fetches and interlocks.
	StallCycles uint64
	// Retired is the number of retired instructions.
	Retired uint64
	// OpcodeExec counts executions per opcode (used by the per-opcode
	// ablation model).
	OpcodeExec [isa.NumOpcodes]uint64
}

// CustomExecCount returns the execution count of custom instruction id,
// tolerating ids beyond the recorded range.
func (s *Stats) CustomExecCount(id int) uint64 {
	if id < 0 || id >= len(s.CustomExec) {
		return 0
	}
	return s.CustomExec[id]
}

// CPI returns cycles per retired instruction.
func (s *Stats) CPI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Retired)
}

// String formats a human-readable statistics report.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d retired=%d cpi=%.3f\n", s.Cycles, s.Retired, s.CPI())
	for c := 0; c < NumBaseClasses; c++ {
		fmt.Fprintf(&b, "  %-15s %12d cycles\n", ClassName(c), s.ClassCycles[c])
	}
	fmt.Fprintf(&b, "  %-15s %12d cycles\n", "custom", s.CustomCycles)
	fmt.Fprintf(&b, "  icache-miss=%d dcache-miss=%d uncached-fetch=%d interlock=%d\n",
		s.ICacheMisses, s.DCacheMisses, s.UncachedFetches, s.Interlocks)
	fmt.Fprintf(&b, "  custom-regfile-cycles=%d stall-cycles=%d\n", s.CustomRegfileCycles, s.StallCycles)
	return b.String()
}

// TraceEntry records one retired instruction for RTL power estimation
// and resource-usage analysis (the paper's "dynamic execution trace").
type TraceEntry struct {
	// PC is the word index of the instruction.
	PC int32
	// Instr is the retired instruction.
	Instr isa.Instr
	// Cycles is the total cycles charged to the instruction, including
	// penalties and stalls. Wide enough that it is never clamped, so
	// summing trace cycles always agrees with Stats.Cycles.
	Cycles uint32
	// Events.
	ICMiss, DCMiss, Uncached, Interlock, Taken bool
	// Operand and result values, for switching-activity computation in
	// the RTL reference model.
	RsVal, RtVal, Result uint32
	// Addr is the effective memory address of a load/store.
	Addr uint32
}
