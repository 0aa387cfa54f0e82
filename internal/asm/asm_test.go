package asm

import (
	"slices"
	"strings"
	"testing"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/tie"
)

func baseAsm(t *testing.T) *Assembler {
	t.Helper()
	comp, err := tie.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(comp)
}

func TestAssembleBasic(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
start:
    movi a1, 100
    addi a2, a1, -5
    add  a3, a1, a2
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Code) != 4 {
		t.Fatalf("got %d instructions", len(prog.Code))
	}
	want := []isa.Instr{
		{Op: isa.OpMOVI, Rd: 1, Imm: 100},
		{Op: isa.OpADDI, Rd: 2, Rs: 1, Imm: -5},
		{Op: isa.OpADD, Rd: 3, Rs: 1, Rt: 2},
		{Op: isa.OpRET},
	}
	for i, w := range want {
		if prog.Code[i] != w {
			t.Fatalf("instr %d = %v, want %v", i, prog.Code[i], w)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
; a comment
# another
// a third
    nop  ; trailing comment
    nop  # trailing
    nop  // trailing
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Code) != 3 {
		t.Fatalf("got %d instructions, want 3", len(prog.Code))
	}
}

func TestBranchOffsets(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
start:
    movi a1, 3
loop:
    addi a1, a1, -1
    bnez a1, loop
    beq  a1, a2, fwd
    nop
fwd:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	// bnez at index 2, loop at index 1 -> offset 1-2-1 = -2.
	if prog.Code[2].Imm != -2 {
		t.Fatalf("backward branch offset = %d, want -2", prog.Code[2].Imm)
	}
	// beq at index 3, fwd at 5 -> offset +1.
	if prog.Code[3].Imm != 1 {
		t.Fatalf("forward branch offset = %d, want 1", prog.Code[3].Imm)
	}
}

func TestJumpAbsolute(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
    j target
    nop
target:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 2 {
		t.Fatalf("jump target = %d, want 2 (absolute word index)", prog.Code[0].Imm)
	}
}

func TestDataSectionAndLabels(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
start:
    movi a1, table
    movi a2, table+8
    l32i a3, a1, 0
    ret
.data 0x2000
table:
.word 1, 2, 3
.byte 7, 8
.align 4
aligned:
.word 9
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 0x2000 {
		t.Fatalf("table = %#x", prog.Code[0].Imm)
	}
	if prog.Code[1].Imm != 0x2008 {
		t.Fatalf("table+8 = %#x", prog.Code[1].Imm)
	}
	if len(prog.Data) != 1 {
		t.Fatalf("segments = %d", len(prog.Data))
	}
	seg := prog.Data[0]
	if seg.Addr != 0x2000 {
		t.Fatalf("segment addr = %#x", seg.Addr)
	}
	// 3 words + 2 bytes + 2 pad + 1 word = 20 bytes.
	if len(seg.Bytes) != 20 {
		t.Fatalf("segment length = %d, want 20", len(seg.Bytes))
	}
	if seg.Bytes[0] != 1 || seg.Bytes[4] != 2 || seg.Bytes[12] != 7 || seg.Bytes[16] != 9 {
		t.Fatalf("segment contents wrong: %v", seg.Bytes)
	}
}

func TestSpaceDirective(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
    nop
.data 0x1000
buf:
.space 16
after:
.word 5
`)
	if err != nil {
		t.Fatal(err)
	}
	seg := prog.Data[0]
	if len(seg.Bytes) != 20 || seg.Bytes[16] != 5 {
		t.Fatalf("space layout wrong: %d bytes", len(seg.Bytes))
	}
}

func TestUncachedSection(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
    nop
.uncached
    nop
    nop
.cached
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true, false}; !slices.Equal(prog.Uncached, want) {
		t.Fatalf("uncached = %v, want %v", prog.Uncached, want)
	}
}

func TestEntryDefaultsAndStart(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", "    nop\nstart:\n    ret\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry != 1 {
		t.Fatalf("entry = %d, want 1 (start label)", prog.Entry)
	}
	prog2, err := baseAsm(t).Assemble("p", "    ret\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Entry != 0 {
		t.Fatalf("default entry = %d", prog2.Entry)
	}
}

func TestBranchImmediateForm(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
start:
    beqi a1, -4, start
    bbsi a2, 31, start
`)
	if err != nil {
		t.Fatal(err)
	}
	if int8(prog.Code[0].Rt<<2)>>2 != -4 {
		t.Fatalf("beqi constant = %d", prog.Code[0].Rt)
	}
	if prog.Code[1].Rt != 31 {
		t.Fatalf("bbsi bit = %d", prog.Code[1].Rt)
	}
}

func TestCustomMnemonics(t *testing.T) {
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{
			{
				Name: "frob", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []tie.DatapathElem{{
					Component: hwlib.Component{Name: "u", Cat: hwlib.Shifter, Width: 32},
				}},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal },
			},
		},
	}
	comp, err := tie.Compile(ext)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := New(comp).Assemble("p", "    frob a1, a2, a3\n    ret\n")
	if err != nil {
		t.Fatal(err)
	}
	in := prog.Code[0]
	if in.Op != isa.OpCUSTOM || in.CustomID != 0 || in.Rd != 1 || in.Rs != 2 || in.Rt != 3 {
		t.Fatalf("custom instruction = %+v", in)
	}
	// Wrong arity must be diagnosed.
	if _, err := New(comp).Assemble("p", "    frob a1, a2\n"); err == nil {
		t.Fatal("short custom operand list accepted")
	}
}

func TestErrorDiagnostics(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"    bogus a1, a2\n", "unknown mnemonic"},
		{"    add a1, a2\n", "takes 3 operands"},
		{"    movi a99, 5\n", "invalid register"},
		{"    movi a1, nowhere\n", "undefined symbol"},
		{"lbl:\nlbl:\n    nop\n", "duplicate label"},
		{"    .bogusdir 5\n", "unknown directive"},
		{".word 1\n", "outside data section"},
		{"    beqi a1, 99, 0\n", "out of range"},
		{".data 0x100\n    add a1, a2, a3\n", "instruction inside data section"},
		{"1bad:\n    nop\n", "invalid label"},
		{".data 0x100\n.byte 300\n", "out of range"},
	}
	for _, tc := range cases {
		_, err := baseAsm(t).Assemble("p", tc.src)
		if err == nil {
			t.Errorf("source %q assembled, want error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not contain %q", err.Error(), tc.want)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := baseAsm(t).Assemble("myprog", "    nop\n    bogus\n")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "myprog:2:") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestTrailingLabel(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
    j end
    nop
end:
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 2 {
		t.Fatalf("end label = %d, want 2 (end of code)", prog.Code[0].Imm)
	}
}

func TestNumericFormats(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
    movi a1, 0x10
    movi a2, -42
    slli a3, a1, 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 16 || prog.Code[1].Imm != -42 || prog.Code[2].Imm != 4 {
		t.Fatalf("immediates: %d %d %d", prog.Code[0].Imm, prog.Code[1].Imm, prog.Code[2].Imm)
	}
}

func TestCustomImmediateForm(t *testing.T) {
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{
			{
				Name: "roti", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
				Datapath: []tie.DatapathElem{{
					Component: hwlib.Component{Name: "u", Cat: hwlib.Shifter, Width: 32},
				}},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 {
					sh := uint(op.Imm) & 31
					return op.RsVal<<sh | op.RsVal>>(32-sh)
				},
			},
		},
	}
	comp, err := tie.Compile(ext)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := New(comp).Assemble("p", "    roti a1, a2, -3\n    roti a3, a4, 31\n    ret\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Rt != 0x3D { // -3 as a 6-bit constant
		t.Fatalf("immediate encoding = %d", prog.Code[0].Rt)
	}
	if prog.Code[1].Rt != 31 {
		t.Fatalf("immediate encoding = %d", prog.Code[1].Rt)
	}
	// Out-of-range immediate must be rejected.
	if _, err := New(comp).Assemble("p", "    roti a1, a2, 32\n"); err == nil {
		t.Fatal("oversized custom immediate accepted")
	}
	// A register where an immediate is expected parses as a symbol error.
	if _, err := New(comp).Assemble("p", "    roti a1, a2, a3\n"); err == nil {
		t.Fatal("register accepted as custom immediate")
	}
}

func TestEquDirective(t *testing.T) {
	prog, err := baseAsm(t).Assemble("p", `
.equ SIZE, 64
.equ BASE, 0x1000
.equ DERIVED, BASE+8
start:
    movi a1, SIZE
    movi a2, BASE
    movi a3, DERIVED
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 64 || prog.Code[1].Imm != 0x1000 || prog.Code[2].Imm != 0x1008 {
		t.Fatalf("equ values: %d %d %d", prog.Code[0].Imm, prog.Code[1].Imm, prog.Code[2].Imm)
	}
	// Errors: arity, bad name, duplicate.
	if _, err := baseAsm(t).Assemble("p", ".equ X\n    nop\n"); err == nil {
		t.Fatal("short .equ accepted")
	}
	if _, err := baseAsm(t).Assemble("p", ".equ 1X, 5\n    nop\n"); err == nil {
		t.Fatal("bad .equ name accepted")
	}
	if _, err := baseAsm(t).Assemble("p", ".equ X, 1\n.equ X, 2\n    nop\n"); err == nil {
		t.Fatal("duplicate .equ accepted")
	}
}

func TestMoreOperandErrors(t *testing.T) {
	// Exercise per-format operand validation paths.
	cases := []string{
		"    add a1, a2, 5\n",    // RRR with immediate
		"    add a1, 7, a2\n",    // RRR with immediate rs
		"    addi a1, 9, 5\n",    // RRI with immediate rs
		"    neg a1\n",           // RR arity
		"    neg a1, 5\n",        // RR with immediate
		"    movi 5, 1\n",        // RI with immediate rd
		"    movi a1\n",          // RI arity
		"    l32i a1, 4, 0\n",    // Mem with immediate base
		"    beq a1, a2\n",       // branch arity
		"    beq 3, a2, 0\n",     // branch immediate rs
		"    beq a1, 3, 0\n",     // branch immediate rt
		"    beqi a1, xyz, 0\n",  // undefined constant
		"    beqz 4, 0\n",        // branchR immediate rs
		"    beqz a1\n",          // branchR arity
		"    j\n",                // jump arity
		"    j nowhere\n",        // undefined jump target
		"    jx 5\n",             // jumpR immediate
		"    jx a1, a2\n",        // jumpR arity
		"    ret a1\n",           // none-format with operand
		"    slli a1, a2, bad\n", // unresolvable immediate
		".data 0x10, 0x20\n",     // directive arity
		".data xyz\n",            // non-numeric directive arg
		".data -4\n",             // negative directive arg
		".space 2\n",             // .space outside data
		".align 3\n.data 0x10\n", // .align outside data
		".data 0x10\n.align 3\n", // non-power-of-two align
		"    movi a1, \n",        // empty operand
	}
	for _, src := range cases {
		if _, err := baseAsm(t).Assemble("p", src); err == nil {
			t.Errorf("source %q assembled, want error", src)
		}
	}
	// Jump to a data label is rejected.
	if _, err := baseAsm(t).Assemble("p", ".data 0x100\nd: .word 1\n.text\n    j d\n"); err == nil {
		t.Error("jump to data label accepted")
	}
	// Data label before .data is rejected.
	if _, err := baseAsm(t).Assemble("p", ".data 0x100\n.text\n    nop\n.word 3\n"); err == nil {
		t.Error(".word after .text accepted")
	}
}

func TestSymbolPlusOffsetInBranch(t *testing.T) {
	// label+offset in a branch position falls back to the raw value
	// rather than pc-relative conversion; numeric offsets work.
	prog, err := baseAsm(t).Assemble("p", `
start:
    beq a1, a2, 1
    nop
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].Imm != 1 {
		t.Fatalf("numeric branch offset = %d", prog.Code[0].Imm)
	}
}
