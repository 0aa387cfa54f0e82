// Package isa defines XT32, the base instruction set architecture of the
// extensible processor modeled in this repository.
//
// XT32 is a 32-bit RISC ISA in the mold of Tensilica's Xtensa base ISA
// (DATE 2003 paper, Section II): roughly 80 instructions built around a
// traditional five-stage pipeline, a 32-bit address space, and a general
// register file of 64 32-bit registers. Instructions fall into the six
// energy classes the paper's macro-model clusters them into: arithmetic,
// load, store, jump, branch taken, and branch untaken (branch class is
// resolved dynamically per execution).
//
// The ISA is extensible: custom (TIE-like) instructions occupy a reserved
// opcode and are identified by an extension index; their definitions live
// in the tie package.
package isa

// Architectural constants of the XT32 base core.
const (
	// NumRegs is the size of the general register file (the paper's
	// configuration: "a generic register file with 64 32-bit registers").
	NumRegs = 64
	// WordBytes is the architectural word size in bytes.
	WordBytes = 4
	// AddrBits is the width of the address space.
	AddrBits = 32
)

// Class is the energy class of an instruction: the macro-model clusters
// the base ISA into six classes (paper Eq. 3), with custom instructions
// handled separately.
type Class uint8

// Instruction energy classes.
const (
	// ClassArith covers ALU, shift, move and multiply instructions.
	ClassArith Class = iota
	// ClassLoad covers all memory loads.
	ClassLoad
	// ClassStore covers all memory stores.
	ClassStore
	// ClassJump covers unconditional jumps, calls and returns.
	ClassJump
	// ClassBranch covers conditional branches; the dynamic class is
	// ClassBranchTaken or ClassBranchUntaken depending on the outcome.
	ClassBranch
	// ClassBranchTaken is the dynamic class of a taken branch.
	ClassBranchTaken
	// ClassBranchUntaken is the dynamic class of an untaken branch.
	ClassBranchUntaken
	// ClassCustom marks a custom (TIE) instruction; its energy is modeled
	// through the structural macro-model variables, plus the side-effect
	// variable when it reads or writes the general register file.
	ClassCustom

	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassArith:
		return "arith"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassJump:
		return "jump"
	case ClassBranch:
		return "branch"
	case ClassBranchTaken:
		return "branch-taken"
	case ClassBranchUntaken:
		return "branch-untaken"
	case ClassCustom:
		return "custom"
	}
	return "invalid"
}

// Format describes how an instruction's operand fields are interpreted.
type Format uint8

// Operand formats.
const (
	// FormatRRR: rd <- op(rs, rt).
	FormatRRR Format = iota
	// FormatRRI: rd <- op(rs, imm).
	FormatRRI
	// FormatRR: rd <- op(rs).
	FormatRR
	// FormatRI: rd <- imm.
	FormatRI
	// FormatMem: load rd <- mem[rs+imm] or store mem[rs+imm] <- rd.
	FormatMem
	// FormatBranchRR: compare rs with rt, branch by imm offset (words).
	FormatBranchRR
	// FormatBranchRI: compare rs with imm-coded constant, branch by offset
	// held in Rt-extended encoding; assembled as "op rs, imm, label".
	FormatBranchRI
	// FormatBranchR: compare rs with zero (or test bits), branch by imm.
	FormatBranchR
	// FormatJump: unconditional jump to absolute word target imm.
	FormatJump
	// FormatJumpR: indirect jump/call through rs.
	FormatJumpR
	// FormatNone: no operands (NOP, RET).
	FormatNone
	// FormatCustom: operand interpretation is defined by the TIE
	// extension identified by Instr.CustomID.
	FormatCustom
)

// Opcode enumerates the base XT32 instructions plus the reserved custom
// opcode. The zero value is OpInvalid so that a zero Instr is detectably
// invalid.
type Opcode uint8

// Base ISA opcodes. The set is modeled on the Xtensa base ISA ("the base
// ISA defines approximately 80 instructions").
const (
	OpInvalid Opcode = iota

	// Arithmetic and logic.
	OpADD
	OpADDI
	OpSUB
	OpNEG
	OpAND
	OpANDI
	OpOR
	OpORI
	OpXOR
	OpXORI
	OpNOT
	OpSLL
	OpSLLI
	OpSRL
	OpSRLI
	OpSRA
	OpSRAI
	OpSLT
	OpSLTI
	OpSLTU
	OpSLTIU
	OpMOVI
	OpMOV
	OpMOVEQZ
	OpMOVNEZ
	OpMOVLTZ
	OpMOVGEZ
	OpMUL
	OpMULH
	OpMULHU
	OpMIN
	OpMAX
	OpMINU
	OpMAXU
	OpABS
	OpSEXT8
	OpSEXT16
	OpCLAMPS
	OpNSA
	OpNSAU
	OpEXTUI
	OpNOP

	// Loads.
	OpL8UI
	OpL8SI
	OpL16UI
	OpL16SI
	OpL32I
	OpL32R

	// Stores.
	OpS8I
	OpS16I
	OpS32I

	// Jumps, calls, returns.
	OpJ
	OpJX
	OpCALL
	OpCALLX
	OpRET

	// Conditional branches: register-register.
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpBANY
	OpBNONE
	OpBALL
	OpBNALL

	// Conditional branches: register-immediate.
	OpBEQI
	OpBNEI
	OpBLTI
	OpBGEI
	OpBLTUI
	OpBGEUI

	// Conditional branches: register-zero and bit tests.
	OpBEQZ
	OpBNEZ
	OpBLTZ
	OpBGEZ
	OpBBCI
	OpBBSI

	// Zero-overhead loop option (configurable, like Xtensa's loop
	// option): LOOP sets up a hardware loop over the instructions up to
	// (but excluding) the target; LOOPNEZ additionally skips the body
	// when the trip count is zero. Executing either on a core configured
	// without the option is an illegal-instruction error.
	OpLOOP
	OpLOOPNEZ

	// OpCUSTOM is the reserved opcode for TIE custom instructions; the
	// concrete extension is selected by Instr.CustomID.
	OpCUSTOM

	numOpcodes
)

// NumOpcodes is the size of the opcode space (including OpInvalid and
// OpCUSTOM); useful for opcode-indexed tables.
const NumOpcodes = int(numOpcodes)

// Def is the static definition of one base instruction.
type Def struct {
	Op     Opcode
	Name   string // assembler mnemonic, lower case
	Format Format
	Class  Class
	// Cycles is the base occupancy of the instruction in the pipeline in
	// the absence of stalls. Most instructions take one cycle; the 32-bit
	// multiply option is iterative and takes two.
	Cycles int
	// ReadsRs, ReadsRt, WritesRd describe register usage for hazard
	// detection.
	ReadsRs, ReadsRt, WritesRd bool
}

var defs = [numOpcodes]Def{
	OpADD:    {OpADD, "add", FormatRRR, ClassArith, 1, true, true, true},
	OpADDI:   {OpADDI, "addi", FormatRRI, ClassArith, 1, true, false, true},
	OpSUB:    {OpSUB, "sub", FormatRRR, ClassArith, 1, true, true, true},
	OpNEG:    {OpNEG, "neg", FormatRR, ClassArith, 1, true, false, true},
	OpAND:    {OpAND, "and", FormatRRR, ClassArith, 1, true, true, true},
	OpANDI:   {OpANDI, "andi", FormatRRI, ClassArith, 1, true, false, true},
	OpOR:     {OpOR, "or", FormatRRR, ClassArith, 1, true, true, true},
	OpORI:    {OpORI, "ori", FormatRRI, ClassArith, 1, true, false, true},
	OpXOR:    {OpXOR, "xor", FormatRRR, ClassArith, 1, true, true, true},
	OpXORI:   {OpXORI, "xori", FormatRRI, ClassArith, 1, true, false, true},
	OpNOT:    {OpNOT, "not", FormatRR, ClassArith, 1, true, false, true},
	OpSLL:    {OpSLL, "sll", FormatRRR, ClassArith, 1, true, true, true},
	OpSLLI:   {OpSLLI, "slli", FormatRRI, ClassArith, 1, true, false, true},
	OpSRL:    {OpSRL, "srl", FormatRRR, ClassArith, 1, true, true, true},
	OpSRLI:   {OpSRLI, "srli", FormatRRI, ClassArith, 1, true, false, true},
	OpSRA:    {OpSRA, "sra", FormatRRR, ClassArith, 1, true, true, true},
	OpSRAI:   {OpSRAI, "srai", FormatRRI, ClassArith, 1, true, false, true},
	OpSLT:    {OpSLT, "slt", FormatRRR, ClassArith, 1, true, true, true},
	OpSLTI:   {OpSLTI, "slti", FormatRRI, ClassArith, 1, true, false, true},
	OpSLTU:   {OpSLTU, "sltu", FormatRRR, ClassArith, 1, true, true, true},
	OpSLTIU:  {OpSLTIU, "sltiu", FormatRRI, ClassArith, 1, true, false, true},
	OpMOVI:   {OpMOVI, "movi", FormatRI, ClassArith, 1, false, false, true},
	OpMOV:    {OpMOV, "mov", FormatRR, ClassArith, 1, true, false, true},
	OpMOVEQZ: {OpMOVEQZ, "moveqz", FormatRRR, ClassArith, 1, true, true, true},
	OpMOVNEZ: {OpMOVNEZ, "movnez", FormatRRR, ClassArith, 1, true, true, true},
	OpMOVLTZ: {OpMOVLTZ, "movltz", FormatRRR, ClassArith, 1, true, true, true},
	OpMOVGEZ: {OpMOVGEZ, "movgez", FormatRRR, ClassArith, 1, true, true, true},
	OpMUL:    {OpMUL, "mul", FormatRRR, ClassArith, 2, true, true, true},
	OpMULH:   {OpMULH, "mulh", FormatRRR, ClassArith, 2, true, true, true},
	OpMULHU:  {OpMULHU, "mulhu", FormatRRR, ClassArith, 2, true, true, true},
	OpMIN:    {OpMIN, "min", FormatRRR, ClassArith, 1, true, true, true},
	OpMAX:    {OpMAX, "max", FormatRRR, ClassArith, 1, true, true, true},
	OpMINU:   {OpMINU, "minu", FormatRRR, ClassArith, 1, true, true, true},
	OpMAXU:   {OpMAXU, "maxu", FormatRRR, ClassArith, 1, true, true, true},
	OpABS:    {OpABS, "abs", FormatRR, ClassArith, 1, true, false, true},
	OpSEXT8:  {OpSEXT8, "sext8", FormatRR, ClassArith, 1, true, false, true},
	OpSEXT16: {OpSEXT16, "sext16", FormatRR, ClassArith, 1, true, false, true},
	OpCLAMPS: {OpCLAMPS, "clamps", FormatRRI, ClassArith, 1, true, false, true},
	OpNSA:    {OpNSA, "nsa", FormatRR, ClassArith, 1, true, false, true},
	OpNSAU:   {OpNSAU, "nsau", FormatRR, ClassArith, 1, true, false, true},
	OpEXTUI:  {OpEXTUI, "extui", FormatRRI, ClassArith, 1, true, false, true},
	OpNOP:    {OpNOP, "nop", FormatNone, ClassArith, 1, false, false, false},

	OpL8UI:  {OpL8UI, "l8ui", FormatMem, ClassLoad, 1, true, false, true},
	OpL8SI:  {OpL8SI, "l8si", FormatMem, ClassLoad, 1, true, false, true},
	OpL16UI: {OpL16UI, "l16ui", FormatMem, ClassLoad, 1, true, false, true},
	OpL16SI: {OpL16SI, "l16si", FormatMem, ClassLoad, 1, true, false, true},
	OpL32I:  {OpL32I, "l32i", FormatMem, ClassLoad, 1, true, false, true},
	OpL32R:  {OpL32R, "l32r", FormatRI, ClassLoad, 1, false, false, true},

	OpS8I:  {OpS8I, "s8i", FormatMem, ClassStore, 1, true, false, false},
	OpS16I: {OpS16I, "s16i", FormatMem, ClassStore, 1, true, false, false},
	OpS32I: {OpS32I, "s32i", FormatMem, ClassStore, 1, true, false, false},

	OpJ:     {OpJ, "j", FormatJump, ClassJump, 1, false, false, false},
	OpJX:    {OpJX, "jx", FormatJumpR, ClassJump, 1, true, false, false},
	OpCALL:  {OpCALL, "call", FormatJump, ClassJump, 1, false, false, false},
	OpCALLX: {OpCALLX, "callx", FormatJumpR, ClassJump, 1, true, false, false},
	OpRET:   {OpRET, "ret", FormatNone, ClassJump, 1, false, false, false},

	OpBEQ:   {OpBEQ, "beq", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBNE:   {OpBNE, "bne", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBLT:   {OpBLT, "blt", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBGE:   {OpBGE, "bge", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBLTU:  {OpBLTU, "bltu", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBGEU:  {OpBGEU, "bgeu", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBANY:  {OpBANY, "bany", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBNONE: {OpBNONE, "bnone", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBALL:  {OpBALL, "ball", FormatBranchRR, ClassBranch, 1, true, true, false},
	OpBNALL: {OpBNALL, "bnall", FormatBranchRR, ClassBranch, 1, true, true, false},

	OpBEQI:  {OpBEQI, "beqi", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBNEI:  {OpBNEI, "bnei", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBLTI:  {OpBLTI, "blti", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBGEI:  {OpBGEI, "bgei", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBLTUI: {OpBLTUI, "bltui", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBGEUI: {OpBGEUI, "bgeui", FormatBranchRI, ClassBranch, 1, true, false, false},

	OpBEQZ: {OpBEQZ, "beqz", FormatBranchR, ClassBranch, 1, true, false, false},
	OpBNEZ: {OpBNEZ, "bnez", FormatBranchR, ClassBranch, 1, true, false, false},
	OpBLTZ: {OpBLTZ, "bltz", FormatBranchR, ClassBranch, 1, true, false, false},
	OpBGEZ: {OpBGEZ, "bgez", FormatBranchR, ClassBranch, 1, true, false, false},
	OpBBCI: {OpBBCI, "bbci", FormatBranchRI, ClassBranch, 1, true, false, false},
	OpBBSI: {OpBBSI, "bbsi", FormatBranchRI, ClassBranch, 1, true, false, false},

	OpLOOP:    {OpLOOP, "loop", FormatBranchR, ClassArith, 1, true, false, false},
	OpLOOPNEZ: {OpLOOPNEZ, "loopnez", FormatBranchR, ClassArith, 1, true, false, false},

	OpCUSTOM: {OpCUSTOM, "custom", FormatCustom, ClassCustom, 1, false, false, false},
}

var byName = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := OpInvalid + 1; op < numOpcodes; op++ {
		m[defs[op].Name] = op
	}
	return m
}()

// Lookup returns the definition of op. It returns false for OpInvalid or
// out-of-range values.
func Lookup(op Opcode) (Def, bool) {
	if op <= OpInvalid || op >= numOpcodes {
		return Def{}, false
	}
	return defs[op], true
}

// ByName returns the opcode for an assembler mnemonic.
func ByName(name string) (Opcode, bool) {
	op, ok := byName[name]
	return op, ok
}

// BaseOpcodes returns the list of all valid base opcodes (excluding
// OpCUSTOM), in declaration order. The slice is freshly allocated.
func BaseOpcodes() []Opcode {
	out := make([]Opcode, 0, int(numOpcodes)-2)
	for op := OpInvalid + 1; op < numOpcodes; op++ {
		if op != OpCUSTOM {
			out = append(out, op)
		}
	}
	return out
}

// Name returns the mnemonic for op, or "invalid".
func (op Opcode) Name() string {
	d, ok := Lookup(op)
	if !ok {
		return "invalid"
	}
	return d.Name
}

// ClassOf returns the static energy class of op (branches report
// ClassBranch; the dynamic taken/untaken split happens at execution).
func ClassOf(op Opcode) Class {
	d, ok := Lookup(op)
	if !ok {
		return ClassArith
	}
	return d.Class
}
