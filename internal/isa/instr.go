package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Instr is one decoded XT32 instruction. Programs are represented as
// slices of Instr.
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

// Disassemble renders a program listing with word indices.
func Disassemble(prog []Instr) string {
	var sb strings.Builder
	for i, in := range prog {
		fmt.Fprintf(&sb, "%6d: %s\n", i, in.String())
	}
	return sb.String()
}
