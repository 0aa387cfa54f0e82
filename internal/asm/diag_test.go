package asm

import (
	"errors"
	"strings"
	"testing"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/tie"
)

// immAsm returns an assembler with one immediate-form custom mnemonic
// (rotk) for exercising the [-32,31] constant range diagnostic.
func immAsm(t *testing.T) *Assembler {
	t.Helper()
	comp, err := tie.Compile(&tie.Extension{
		Name: "d",
		Instructions: []*tie.Instruction{{
			Name: "rotk", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
			Datapath: []tie.DatapathElem{{
				Component: hwlib.Component{Name: "u", Cat: hwlib.TIEAdd, Width: 32},
			}},
			Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(comp)
}

// TestDiagnosticLineNumbers asserts that every diagnostic class carries
// the exact source line in the structured *Error — not just somewhere in
// the message text.
func TestDiagnosticLineNumbers(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantMsg  string
	}{
		{"duplicate_label", "    nop\nlbl:\n    nop\nlbl:\n    ret\n", 4, "duplicate label"},
		{"duplicate_equ", ".equ K, 1\n.equ K, 2\n", 2, "duplicate symbol"},
		{"undefined_symbol", "    nop\n    movi a1, nowhere\n", 2, "undefined symbol"},
		{"invalid_register", "    nop\n    nop\n    movi a99, 5\n", 3, "invalid register"},
		{"branchri_constant_range", "    nop\n    beqi a1, 99, 0\n", 2, "out of range [-32,63]"},
		{"custom_imm_range", "    nop\n    rotk a1, a2, 40\n", 2, "out of range [-32,31]"},
		{"byte_range", ".data 0x100\n.byte 1, 2\n.byte 300\n", 3, "out of range"},
		{"unknown_mnemonic", "    nop\n\n    bogus a1\n", 3, "unknown mnemonic"},
		{"wrong_arity", "    nop\n    add a1, a2\n", 2, "takes 3 operands"},
		{"branch_target_range", "    nop\n    beq a1, a2, 99\n    ret\n", 2, "out of range [0,3]"},
		{"branchr_target_range", "    bnez a1, -5\n    ret\n", 1, "out of range [0,2]"},
		{"jump_target_range", "    nop\n    j 17\n    ret\n", 2, "out of range [0,3]"},
		{"loop_backward_end", "back:\n    movi a2, 3\n    loop a2, back\n    ret\n", 3, "out of range"},
		{"loop_end_past_code", "    movi a2, 3\n    loop a2, 9\n    ret\n", 2, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := immAsm(t).Assemble("p", tc.src)
			if err == nil {
				t.Fatalf("source assembled, want error containing %q", tc.wantMsg)
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not *asm.Error: %v", err, err)
			}
			if ae.Line != tc.wantLine {
				t.Errorf("Line = %d, want %d (%v)", ae.Line, tc.wantLine, err)
			}
			if ae.Program != "p" {
				t.Errorf("Program = %q, want %q", ae.Program, "p")
			}
			if !strings.Contains(ae.Msg, tc.wantMsg) {
				t.Errorf("Msg %q does not contain %q", ae.Msg, tc.wantMsg)
			}
		})
	}
}

// TestProgramLines verifies the instruction→source-line table: blank
// lines, comments, labels, and directives must not shift the mapping.
func TestProgramLines(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `; header comment

start:
    movi a1, 1      ; line 4
    add  a2, a1, a1 ; line 5

done:
    ret             ; line 8
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 8}
	if len(prog.Lines) != len(want) {
		t.Fatalf("Lines = %v, want %v", prog.Lines, want)
	}
	for i, w := range want {
		if prog.Line(i) != w {
			t.Errorf("Line(%d) = %d, want %d", i, prog.Line(i), w)
		}
	}
	if prog.Line(-1) != 0 || prog.Line(len(prog.Code)) != 0 {
		t.Error("out-of-range Line() must return 0")
	}
}
