package isa

import (
	"strings"
	"testing"
)

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpADD, Rd: 1, Rs: 2, Rt: 3}, "add a1, a2, a3"},
		{Instr{Op: OpADDI, Rd: 1, Rs: 2, Imm: -7}, "addi a1, a2, -7"},
		{Instr{Op: OpMOVI, Rd: 4, Imm: 100}, "movi a4, 100"},
		{Instr{Op: OpL32I, Rd: 9, Rs: 2, Imm: 8}, "l32i a9, a2, 8"},
		{Instr{Op: OpBEQ, Rs: 1, Rt: 2, Imm: -3}, "beq a1, a2, -3"},
		{Instr{Op: OpBEQZ, Rs: 1, Imm: 4}, "beqz a1, 4"},
		{Instr{Op: OpJ, Imm: 12}, "j 12"},
		{Instr{Op: OpJX, Rs: 7}, "jx a7"},
		{Instr{Op: OpNOP}, "nop"},
		{Instr{Op: OpRET}, "ret"},
		{Instr{Op: OpCUSTOM, CustomID: 3, Rd: 1, Rs: 2, Rt: 4}, "custom.3 a1, a2, a4"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestDisassemble(t *testing.T) {
	prog := []Instr{{Op: OpMOVI, Rd: 1, Imm: 5}, {Op: OpRET}}
	text := Disassemble(prog)
	if !strings.Contains(text, "movi a1, 5") || !strings.Contains(text, "ret") {
		t.Fatalf("disassembly missing instructions:\n%s", text)
	}
	if !strings.Contains(text, "0:") || !strings.Contains(text, "1:") {
		t.Fatalf("disassembly missing indices:\n%s", text)
	}
}

func TestInstrPredicates(t *testing.T) {
	if !(Instr{Op: OpCUSTOM}).IsCustom() {
		t.Fatal("custom not custom")
	}
	if (Instr{Op: OpADD}).IsCustom() {
		t.Fatal("add is custom")
	}
}
