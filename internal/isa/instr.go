package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Instr is one decoded XT32 instruction. Programs are represented as
// slices of Instr; a packed 32-bit machine encoding is available through
// Encode/Decode for binary round-tripping.
type Instr struct {
	Op Opcode
	// Rd, Rs, Rt are register numbers (0..NumRegs-1). Which of them are
	// meaningful depends on the instruction format.
	Rd, Rs, Rt uint8
	// Imm is the immediate operand: an arithmetic constant, a load/store
	// byte offset, a branch offset in instruction words, or a jump target
	// in instruction words, per the format.
	Imm int32
	// CustomID selects the TIE extension when Op == OpCUSTOM.
	CustomID uint8
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Instr) IsBranch() bool { return ClassOf(in.Op) == ClassBranch }

// IsCustom reports whether the instruction is a TIE custom instruction.
func (in Instr) IsCustom() bool { return in.Op == OpCUSTOM }

// RegName returns the assembler name of register r ("a0".."a63").
func RegName(r uint8) string { return "a" + strconv.Itoa(int(r)) }

// ParseReg parses an "aN" register name.
func ParseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'a' && s[0] != 'A') {
		return 0, fmt.Errorf("isa: invalid register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("isa: invalid register %q", s)
	}
	return uint8(n), nil
}

// String disassembles the instruction.
func (in Instr) String() string {
	d, ok := Lookup(in.Op)
	if !ok {
		return fmt.Sprintf("invalid(%d)", in.Op)
	}
	switch d.Format {
	case FormatRRR:
		return fmt.Sprintf("%s %s, %s, %s", d.Name, RegName(in.Rd), RegName(in.Rs), RegName(in.Rt))
	case FormatRRI:
		return fmt.Sprintf("%s %s, %s, %d", d.Name, RegName(in.Rd), RegName(in.Rs), in.Imm)
	case FormatRR:
		return fmt.Sprintf("%s %s, %s", d.Name, RegName(in.Rd), RegName(in.Rs))
	case FormatRI:
		return fmt.Sprintf("%s %s, %d", d.Name, RegName(in.Rd), in.Imm)
	case FormatMem:
		return fmt.Sprintf("%s %s, %s, %d", d.Name, RegName(in.Rd), RegName(in.Rs), in.Imm)
	case FormatBranchRR:
		return fmt.Sprintf("%s %s, %s, %d", d.Name, RegName(in.Rs), RegName(in.Rt), in.Imm)
	case FormatBranchRI:
		return fmt.Sprintf("%s %s, %d, %d", d.Name, RegName(in.Rs), in.Rt, in.Imm)
	case FormatBranchR:
		return fmt.Sprintf("%s %s, %d", d.Name, RegName(in.Rs), in.Imm)
	case FormatJump:
		return fmt.Sprintf("%s %d", d.Name, in.Imm)
	case FormatJumpR:
		return fmt.Sprintf("%s %s", d.Name, RegName(in.Rs))
	case FormatNone:
		return d.Name
	case FormatCustom:
		return fmt.Sprintf("custom.%d %s, %s, %s", in.CustomID, RegName(in.Rd), RegName(in.Rs), RegName(in.Rt))
	}
	return d.Name
}

// Machine encoding layout (32 bits):
//
//	[31:24] opcode
//	[23:18] field A (rd, or rs for branches)
//	[17:12] field B (rs, or rt / small constant for branches)
//	[11:0]  imm12 (signed), or rt in [5:0] for RRR,
//	        or CustomID in [11:6] plus rt in [5:0] for OpCUSTOM.
//
// FormatRI uses fields B+imm12 as a signed 18-bit immediate and FormatJump
// uses A+B+imm12 as a 24-bit word target.
const (
	immBits12 = 12
	immBits18 = 18
	immBits24 = 24
)

func signExtend(v uint32, bits int) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

func fits(v int32, bits int) bool {
	min := int32(-1) << (bits - 1)
	max := -min - 1
	return v >= min && v <= max
}

// Encode packs the instruction into its 32-bit machine form.
func (in Instr) Encode() (uint32, error) {
	d, ok := Lookup(in.Op)
	if !ok {
		return 0, fmt.Errorf("isa: cannot encode invalid opcode %d", in.Op)
	}
	if int(in.Rd) >= NumRegs || int(in.Rs) >= NumRegs || int(in.Rt) >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %v", in)
	}
	w := uint32(in.Op) << 24
	a := func(r uint8) uint32 { return uint32(r) << 18 }
	b := func(r uint8) uint32 { return uint32(r) << 12 }
	imm12 := func(v int32) (uint32, error) {
		if !fits(v, immBits12) {
			return 0, fmt.Errorf("isa: immediate %d does not fit in 12 bits for %s", v, d.Name)
		}
		return uint32(v) & 0xFFF, nil
	}
	switch d.Format {
	case FormatRRR:
		w |= a(in.Rd) | b(in.Rs) | uint32(in.Rt)
	case FormatRRI, FormatMem:
		iv, err := imm12(in.Imm)
		if err != nil {
			return 0, err
		}
		w |= a(in.Rd) | b(in.Rs) | iv
	case FormatRR:
		w |= a(in.Rd) | b(in.Rs)
	case FormatRI:
		if !fits(in.Imm, immBits18) {
			return 0, fmt.Errorf("isa: immediate %d does not fit in 18 bits for %s", in.Imm, d.Name)
		}
		w |= a(in.Rd) | (uint32(in.Imm) & 0x3FFFF)
	case FormatBranchRR:
		iv, err := imm12(in.Imm)
		if err != nil {
			return 0, err
		}
		w |= a(in.Rs) | b(in.Rt) | iv
	case FormatBranchRI:
		if in.Rt >= 64 {
			return 0, fmt.Errorf("isa: branch constant %d out of range for %s", in.Rt, d.Name)
		}
		iv, err := imm12(in.Imm)
		if err != nil {
			return 0, err
		}
		w |= a(in.Rs) | b(in.Rt) | iv
	case FormatBranchR:
		iv, err := imm12(in.Imm)
		if err != nil {
			return 0, err
		}
		w |= a(in.Rs) | iv
	case FormatJump:
		if in.Imm < 0 || !fits(in.Imm, immBits24+1) {
			return 0, fmt.Errorf("isa: jump target %d out of range for %s", in.Imm, d.Name)
		}
		w |= uint32(in.Imm) & 0xFFFFFF
	case FormatJumpR:
		w |= a(in.Rs)
	case FormatNone:
		// opcode only
	case FormatCustom:
		w |= a(in.Rd) | b(in.Rs) | uint32(in.CustomID)<<6 | uint32(in.Rt)&0x3F
	}
	return w, nil
}

// Decode unpacks a 32-bit machine word into an Instr.
func Decode(w uint32) (Instr, error) {
	op := Opcode(w >> 24)
	d, ok := Lookup(op)
	if !ok {
		return Instr{}, fmt.Errorf("isa: invalid opcode byte %#x", w>>24)
	}
	fa := uint8((w >> 18) & 0x3F)
	fb := uint8((w >> 12) & 0x3F)
	i12 := signExtend(w&0xFFF, immBits12)
	in := Instr{Op: op}
	switch d.Format {
	case FormatRRR:
		in.Rd, in.Rs, in.Rt = fa, fb, uint8(w&0x3F)
	case FormatRRI, FormatMem:
		in.Rd, in.Rs, in.Imm = fa, fb, i12
	case FormatRR:
		in.Rd, in.Rs = fa, fb
	case FormatRI:
		in.Rd, in.Imm = fa, signExtend(w&0x3FFFF, immBits18)
	case FormatBranchRR:
		in.Rs, in.Rt, in.Imm = fa, fb, i12
	case FormatBranchRI:
		in.Rs, in.Rt, in.Imm = fa, fb, i12
	case FormatBranchR:
		in.Rs, in.Imm = fa, i12
	case FormatJump:
		in.Imm = int32(w & 0xFFFFFF)
	case FormatJumpR:
		in.Rs = fa
	case FormatNone:
		// nothing
	case FormatCustom:
		in.Rd, in.Rs = fa, fb
		in.CustomID = uint8((w >> 6) & 0x3F)
		in.Rt = uint8(w & 0x3F)
	}
	return in, nil
}

// Disassemble renders a program listing with word indices.
func Disassemble(prog []Instr) string {
	var sb strings.Builder
	for i, in := range prog {
		fmt.Fprintf(&sb, "%6d: %s\n", i, in.String())
	}
	return sb.String()
}
