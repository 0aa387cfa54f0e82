package xlint_test

import (
	"strings"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
	"xtenergy/internal/xlint"
)

func baseProc(t *testing.T) *procgen.Processor {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func analyzeSrc(t *testing.T, proc *procgen.Processor, src string) *xlint.Report {
	t.Helper()
	prog, err := asm.New(proc.TIE).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return xlint.Analyze(prog, proc)
}

// findings returns the findings with the given code.
func findings(r *xlint.Report, code string) []xlint.Finding {
	var out []xlint.Finding
	for _, f := range r.Findings {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
    movi a2, 7
    movi a3, 5
    add  a1, a2, a3
    ret
`)
	if len(r.Findings) != 0 {
		t.Fatalf("clean program produced findings: %v", r.Findings)
	}
}

func TestDefiniteUninitRead(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
    movi a2, 7
    add  a1, a2, a3
    ret
`)
	fs := findings(r, "uninit-read")
	if len(fs) != 1 || fs[0].Sev != xlint.SevError || fs[0].Reg != 3 || fs[0].PC != 1 {
		t.Fatalf("uninit-read findings = %v, want one error for a3 at pc 1", fs)
	}
	if fs[0].Line != 3 {
		t.Errorf("finding line = %d, want 3", fs[0].Line)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "uninit-read") {
		t.Errorf("Err() = %v, want uninit-read summary", err)
	}
}

// A register written on only one side of a branch is maybe-uninitialized
// at the join.
func TestMaybeUninitRead(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
    movi a2, 1
    beqz a2, join
    movi a3, 5
join:
    add  a1, a3, a2
    ret
`)
	fs := findings(r, "uninit-read")
	if len(fs) != 1 || fs[0].Sev != xlint.SevWarn || fs[0].Reg != 3 {
		t.Fatalf("findings = %v, want one warning for a3", fs)
	}
	// Initializing on both sides silences it.
	r = analyzeSrc(t, baseProc(t), `
    movi a2, 1
    beqz a2, other
    movi a3, 5
    j join
other:
    movi a3, 9
join:
    add  a1, a3, a2
    ret
`)
	if fs := findings(r, "uninit-read"); len(fs) != 0 {
		t.Fatalf("both-sides init still flagged: %v", fs)
	}
}

func TestDeadWrite(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
    movi a2, 1
    movi a2, 2
    mov  a1, a2
    ret
`)
	fs := findings(r, "dead-write")
	if len(fs) != 1 || fs[0].PC != 0 || fs[0].Reg != 2 {
		t.Fatalf("dead-write findings = %v, want one at pc 0 for a2", fs)
	}
	// The final register file is observable: a last write is never dead.
	r = analyzeSrc(t, baseProc(t), `
    movi a2, 1
    ret
`)
	if fs := findings(r, "dead-write"); len(fs) != 0 {
		t.Fatalf("final write flagged dead: %v", fs)
	}
	// A conditional move reads its old destination value, keeping the
	// prior write live.
	r = analyzeSrc(t, baseProc(t), `
    movi a2, 1
    movi a3, 0
    moveqz a2, a3, a3
    mov a1, a2
    ret
`)
	if fs := findings(r, "dead-write"); len(fs) != 0 {
		t.Fatalf("write kept live by conditional move flagged dead: %v", fs)
	}
}

func TestUnreachableBlock(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
    movi a1, 1
    ret
    movi a2, 2
    movi a1, 3
    ret
`)
	fs := findings(r, "unreachable")
	if len(fs) != 1 || fs[0].PC != 2 {
		t.Fatalf("unreachable findings = %v, want one at pc 2", fs)
	}
}

func TestGuaranteedInterlockPair(t *testing.T) {
	proc := baseProc(t)
	r := analyzeSrc(t, proc, `
    movi a2, 0x100
    l32i a3, a2, 0
    add  a1, a3, a2
    ret
`)
	fs := findings(r, "interlock")
	if len(fs) != 1 || fs[0].PC != 2 || fs[0].Sev != xlint.SevNote {
		t.Fatalf("interlock findings = %v, want one note at pc 2", fs)
	}
	// A multiply feeding its consumer interlocks too.
	r = analyzeSrc(t, proc, `
    movi a2, 3
    mul  a3, a2, a2
    add  a1, a3, a2
    ret
`)
	if fs := findings(r, "interlock"); len(fs) != 1 || !strings.Contains(fs[0].Msg, "multiply") {
		t.Fatalf("multiply interlock findings = %v", fs)
	}
	// An unrelated consumer does not.
	r = analyzeSrc(t, proc, `
    movi a2, 0x100
    l32i a3, a2, 0
    add  a1, a2, a2
    mov  a4, a3
    ret
`)
	if fs := findings(r, "interlock"); len(fs) != 0 {
		t.Fatalf("independent consumer flagged: %v", fs)
	}
}

// The immediate-form TIE distinction from the PR 1 phantom-interlock
// fix: an Rt-field constant aliasing the load destination must not be
// reported as a guaranteed interlock.
func TestInterlockImmediateFormTIE(t *testing.T) {
	ext := &tie.Extension{
		Name: "lint",
		Instructions: []*tie.Instruction{
			{
				Name: "addk", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
				Datapath:  []tie.DatapathElem{{Component: hwlib.Component{Name: "u", Cat: hwlib.TIEAdd, Width: 32}}},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal + uint32(op.Imm) },
			},
			{
				Name: "gadd", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
				Datapath:  []tie.DatapathElem{{Component: hwlib.Component{Name: "u", Cat: hwlib.TIEAdd, Width: 32}}},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal + op.RtVal },
			},
		},
	}
	proc, err := procgen.Generate(procgen.Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	// addk's constant 3 aliases the load destination a3: NOT an interlock.
	r := analyzeSrc(t, proc, `
    movi a2, 0x100
    l32i a3, a2, 0
    addk a1, a2, 3
    ret
`)
	if fs := findings(r, "interlock"); len(fs) != 0 {
		t.Fatalf("immediate-form alias flagged as interlock: %v", fs)
	}
	// The register form genuinely interlocks.
	r = analyzeSrc(t, proc, `
    movi a2, 0x100
    l32i a3, a2, 0
    gadd a1, a2, a3
    ret
`)
	if fs := findings(r, "interlock"); len(fs) != 1 {
		t.Fatalf("register-form interlock not found: %v", r.Findings)
	}
}

func TestOptionAndEncodingChecks(t *testing.T) {
	proc := baseProc(t) // Default(): HasLoops=false, HasMul32=true
	prog := &iss.Program{Name: "hand", Code: []isa.Instr{
		{Op: isa.OpMOVI, Rd: 2, Imm: 3},
		{Op: isa.OpLOOP, Rs: 2, Imm: 1},
		{Op: isa.OpADD, Rd: 1, Rs: 70, Rt: 2}, // rs beyond the register file
		{Op: isa.OpJ, Imm: 99},                // target out of range
		{Op: isa.OpCUSTOM, CustomID: 9},       // undefined TIE id
		{Op: isa.OpRET},
	}}
	r := xlint.Analyze(prog, proc)
	for _, code := range []string{"loop-option", "reg-range", "invalid-target", "tie-undefined"} {
		if fs := findings(r, code); len(fs) == 0 {
			t.Errorf("no %s finding: %v", code, r.Findings)
		}
	}
	if r.Count(xlint.SevError) == 0 {
		t.Fatal("no error-severity finding")
	}

	cfgNoMul := procgen.Default()
	cfgNoMul.HasMul32 = false
	noMul, err := procgen.Generate(cfgNoMul, nil)
	if err != nil {
		t.Fatal(err)
	}
	r = analyzeSrc(t, noMul, `
    movi a2, 3
    mul  a1, a2, a2
    ret
`)
	if fs := findings(r, "mul-option"); len(fs) != 1 || fs[0].Sev != xlint.SevWarn {
		t.Fatalf("mul-option findings = %v", fs)
	}
}

// The call f / jx a0 return idiom must analyze cleanly: the indirect
// jump's over-approximated target set includes the call return site.
func TestCallReturnIdiom(t *testing.T) {
	r := analyzeSrc(t, baseProc(t), `
start:
    movi a2, 5
    call double
    mov  a1, a3
    ret
double:
    add a3, a2, a2
    jx a0
`)
	for _, f := range r.Findings {
		if f.Sev >= xlint.SevWarn {
			t.Fatalf("call/return idiom flagged: %v", r.Findings)
		}
	}
}

func TestZeroOverheadLoopCFG(t *testing.T) {
	cfg := procgen.Default()
	cfg.HasLoops = true
	proc, err := procgen.Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// a4 is only written inside the loop body; reading it after the loop
	// is clean only if the analysis knows the body executes at least
	// once... it cannot (LOOPNEZ may skip), so a maybe warning is right.
	r := analyzeSrc(t, proc, `
    movi a2, 3
    loopnez a2, done
    movi a4, 7
done:
    mov a1, a4
    ret
`)
	fs := findings(r, "uninit-read")
	if len(fs) != 1 || fs[0].Sev != xlint.SevWarn || fs[0].Reg != 4 {
		t.Fatalf("loopnez skip path: findings = %v, want maybe-uninit a4", fs)
	}
	// With LOOP (always enters), the body dominates the exit.
	r = analyzeSrc(t, proc, `
    movi a2, 3
    loop a2, done
    movi a4, 7
done:
    mov a1, a4
    ret
`)
	if fs := findings(r, "uninit-read"); len(fs) != 0 {
		t.Fatalf("loop-dominated init flagged: %v", fs)
	}
}
