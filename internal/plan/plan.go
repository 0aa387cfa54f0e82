// Package plan is the predecoded program IR shared by every
// per-instruction consumer in the repository: the instruction-set
// simulator executes from it, xlint builds its CFG and dataflow facts
// from it, the energy profiler attributes against it, and the RTL
// reference estimator prices trace entries with it.
//
// The macro-model's value proposition is that estimation is ~1000x
// faster than RTL power simulation, which makes the ISS the inference
// hot path — yet instruction metadata (register ports, energy class,
// control-flow targets, custom-instruction attributes) is a pure
// function of the static instruction and the compiled TIE extension.
// A Plan resolves all of it exactly once per program: the hot loop
// becomes an indexed walk over prebuilt records instead of re-running
// nested opcode switches and register-use derivation on every retired
// instruction.
//
// Invariants:
//
//   - A Plan is immutable after Build returns. Nothing in this package
//     or its consumers writes to a record after construction.
//   - Because it is immutable, one Plan is safely shared across
//     goroutines — iss.Program caches a single Plan per compiled
//     extension and the parallel characterization workers all read it.
//   - A Rec never disagrees with the simulator: the simulator executes
//     *from* the records, and the static analyzers read the same
//     records, so the two cannot drift apart.
package plan

import (
	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/pipeline"
	"xtenergy/internal/tie"
)

// Flow classifies how an instruction computes its destination register
// as a function of its Rs operand — the value-flow shapes the abstract
// interpreter's induction-variable detection needs to recognize without
// re-deriving opcode semantics. Anything not exactly one of the listed
// shapes is FlowOpaque; consumers must treat opaque flows as arbitrary.
type Flow uint8

const (
	// FlowOpaque: the destination is not a recognized function of Rs.
	FlowOpaque Flow = iota
	// FlowConst: rd = FlowK (MOVI).
	FlowConst
	// FlowAddImm: rd = rs + FlowK with FlowK sign-extended (ADDI). When
	// Rd == Rs this is the canonical induction-variable step.
	FlowAddImm
	// FlowCopy: rd = rs (MOV).
	FlowCopy
)

// Rec is the fully resolved metadata of one static instruction. All
// fields are derivable from (Instr, compiled extension, pc, layout);
// they are materialized so per-retire consumers never re-derive them.
type Rec struct {
	// Instr is the instruction this record describes.
	Instr isa.Instr
	// Def is the resolved opcode definition (the zero Def when Valid is
	// false).
	Def isa.Def
	// Valid reports whether the opcode is defined (isa.Lookup). Plans
	// are built for unvalidated programs too — xlint flags invalid
	// opcodes as findings — so consumers must check Valid before
	// trusting Def.
	Valid bool

	// Use is the instruction's register-port model: architectural
	// read/write sets plus the narrower bus-latched hazard view.
	Use RegUse
	// PUse is Use prepackaged for the pipeline interlock comparator, so
	// the simulator's hazard check is a single struct pass.
	PUse pipeline.Use

	// Target is the statically resolved control-flow target in
	// instruction words: the taken target of a conditional branch, the
	// destination of J/CALL, or the end address of LOOP/LOOPNEZ.
	// -1 when the instruction has no static target (including indirect
	// transfers). Targets are resolved, not validated: they may lie
	// outside [0, len(code)] for malformed programs.
	Target int
	// SImm is the decoded 6-bit signed constant carried in the Rt field
	// by register-immediate branch compares and immediate-form TIE
	// instructions (see DecodeImm6); 0 otherwise.
	SImm int32

	// FetchAddr is the instruction's byte address (4*pc), the I-cache
	// lookup key. Zero in records built by Describe.
	FetchAddr uint32
	// Uncached reports that the instruction resides in the uncached
	// region: its fetch bypasses the I-cache.
	Uncached bool

	// IsMult and IsShift classify the execution unit the instruction
	// occupies (iterative multiplier / barrel shifter), for structural
	// power attribution.
	IsMult, IsShift bool
	// RegfileActive reports whether the general register file is active
	// during execution (any bus-latched read or write; for custom
	// instructions, whether the extension touches the general file).
	RegfileActive bool

	// Flow is the instruction's value-flow shape (see Flow); FlowK is
	// the constant it carries (the MOVI immediate, the ADDI addend).
	Flow  Flow
	FlowK int32

	// CI is the compiled custom instruction when Instr is a defined
	// custom op; nil otherwise (including custom ops whose ID the
	// extension does not define — the simulator faults on those).
	CI *tie.Instruction
	// CustomWeights is CI's per-cycle structural category contribution
	// (tie.Compiled.CategoryActiveWeights); zero unless CI is set.
	CustomWeights [hwlib.NumCategories]float64
	// Active lists the component indices active while CI executes
	// (tie.Compiled.ActiveByInstr; shared with the compiled extension,
	// never mutated). Nil unless CI is set.
	Active []int
}

// Plan is the predecoded IR of one program against one compiled TIE
// extension: one Rec per instruction plus program-wide precomputations.
// Build once, read from anywhere.
type Plan struct {
	// Comp is the compiled extension the plan was resolved against.
	Comp *tie.Compiled
	// Recs has one record per instruction, indexed by pc.
	Recs []Rec
	// BusTap is the summed per-category complexity of the bus-tapped
	// custom components (tie.Compiled.BusTapWeights), precomputed
	// because every base arithmetic retire prices it.
	BusTap [hwlib.NumCategories]float64
	// HasBusTaps reports whether any custom component taps the operand
	// buses.
	HasBusTaps bool
}

// Build predecodes a program: code and layout metadata in, one immutable
// Rec per instruction out. comp supplies custom-instruction resolution
// and may be nil (base-only). Invalid opcodes and out-of-range register
// fields are tolerated — the record is marked accordingly and the
// simulator/analyzers handle them exactly as they did when deriving
// per step.
func Build(code []isa.Instr, uncached []bool, comp *tie.Compiled) *Plan {
	p := &Plan{Comp: comp, Recs: make([]Rec, len(code))}
	if comp != nil {
		p.BusTap = comp.BusTapWeights()
		p.HasBusTaps = len(comp.BusTapped) > 0
	}
	for pc := range code {
		r := &p.Recs[pc]
		*r = Describe(comp, code[pc])
		r.FetchAddr = uint32(pc) * isa.WordBytes
		r.Uncached = uncached != nil && uncached[pc]
		// Resolve pc-relative targets (Describe leaves them at -1).
		in := code[pc]
		switch {
		case !r.Valid || in.IsCustom():
			// no static target
		case in.Op == isa.OpJ || in.Op == isa.OpCALL:
			r.Target = int(in.Imm)
		case in.Op == isa.OpLOOP || in.Op == isa.OpLOOPNEZ:
			r.Target = pc + 1 + int(in.Imm) // loop end (exclusive)
		case r.Def.Class == isa.ClassBranch:
			r.Target = pc + 1 + int(in.Imm)
		}
	}
	return p
}

// Rec returns the record at pc, or nil when pc is out of range — the
// lookup consumers of possibly-corrupted trace entries use before
// falling back to Describe.
func (p *Plan) Rec(pc int) *Rec {
	if pc < 0 || pc >= len(p.Recs) {
		return nil
	}
	return &p.Recs[pc]
}

// Describe resolves the position-independent metadata of a single
// instruction: everything in a Rec except the fetch address, uncached
// flag and control-flow target (left 0/false/-1). It allocates nothing
// and is the fallback for pricing trace entries that no longer match
// their plan record (fault-injection harnesses corrupt traces in
// flight; the entry's own instruction stays authoritative).
func Describe(comp *tie.Compiled, in isa.Instr) Rec {
	r := Rec{Instr: in, Target: -1}
	r.Def, r.Valid = isa.Lookup(in.Op)
	r.Use = RegUseOf(comp, in)
	r.PUse = pipeline.Use{
		ReadsRs:  r.Use.ReadsRs,
		ReadsRt:  r.Use.ReadsRt,
		Rs:       in.Rs,
		Rt:       in.Rt,
		IsLoad:   r.Use.IsLoad,
		IsMult:   r.Use.IsMult,
		WritesRd: r.Use.WritesRd,
		Rd:       in.Rd,
	}
	if in.IsCustom() {
		if comp != nil {
			if ci, err := comp.Instruction(in.CustomID); err == nil {
				r.CI = ci
				r.RegfileActive = ci.AccessesGeneralRegfile()
				if w, err := comp.CategoryActiveWeights(in.CustomID); err == nil {
					r.CustomWeights = w
				}
				r.Active = comp.ActiveByInstr[in.CustomID]
				if ci.ImmOperand {
					r.SImm = DecodeImm6(in.Rt)
				}
			}
		}
		return r
	}
	r.IsMult = IsMult(in.Op)
	r.IsShift = IsShift(in.Op)
	switch in.Op {
	case isa.OpMOVI:
		r.Flow, r.FlowK = FlowConst, in.Imm
	case isa.OpADDI:
		r.Flow, r.FlowK = FlowAddImm, in.Imm
	case isa.OpMOV:
		r.Flow = FlowCopy
	}
	r.RegfileActive = r.Def.ReadsRs || r.Def.ReadsRt || r.Def.WritesRd
	if r.Def.Format == isa.FormatBranchRI {
		// The Rt field of a register-immediate branch carries a
		// constant; the signed compares decode it exactly like the
		// immediate-form TIE operand (BLTUI/BGEUI/BBCI/BBSI read the
		// raw field instead and ignore SImm).
		r.SImm = DecodeImm6(in.Rt)
	}
	return r
}

// IsMult reports whether op occupies the iterative 32-bit multiplier.
func IsMult(op isa.Opcode) bool {
	return op == isa.OpMUL || op == isa.OpMULH || op == isa.OpMULHU
}

// IsShift reports whether op occupies the barrel shifter / bit-field
// unit.
func IsShift(op isa.Opcode) bool {
	switch op {
	case isa.OpSLL, isa.OpSLLI, isa.OpSRL, isa.OpSRLI, isa.OpSRA, isa.OpSRAI,
		isa.OpEXTUI, isa.OpNSA, isa.OpNSAU:
		return true
	}
	return false
}
