package iss_test

import (
	"strings"
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
)

// runSrc assembles and runs src on a base processor, returning the
// result and the simulator (for memory inspection).
func runSrc(t *testing.T, src string) (*iss.Result, *iss.Simulator) {
	t.Helper()
	return runSrcExt(t, src, nil)
}

func runSrcExt(t *testing.T, src string, ext *tie.Extension) (*iss.Result, *iss.Simulator) {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), ext)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	sim := iss.New(proc)
	res, err := sim.Run(prog, iss.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, sim
}

// recordTrace runs src on a base processor and returns every retired
// instruction, appended from the TraceSink's batches.
func recordTrace(t *testing.T, src string) []iss.TraceEntry {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.New(proc.TIE).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	var trace []iss.TraceEntry
	if _, err := iss.New(proc).Run(prog, iss.Options{TraceSink: func(batch []iss.TraceEntry) error {
		trace = append(trace, batch...)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	return trace
}

// Table-driven semantics checks: each program leaves its result in a1.
func TestBaseSemantics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want uint32
	}{
		{"add", "movi a2, 7\n movi a3, 5\n add a1, a2, a3\n ret", 12},
		{"addi_neg", "movi a2, 7\n addi a1, a2, -10\n ret", 0xFFFFFFFD},
		{"sub", "movi a2, 7\n movi a3, 5\n sub a1, a2, a3\n ret", 2},
		{"neg", "movi a2, 5\n neg a1, a2\n ret", 0xFFFFFFFB},
		{"and", "movi a2, 12\n movi a3, 10\n and a1, a2, a3\n ret", 8},
		{"andi", "movi a2, 255\n andi a1, a2, 0x0F\n ret", 15},
		{"or", "movi a2, 12\n movi a3, 10\n or a1, a2, a3\n ret", 14},
		{"xor", "movi a2, 12\n movi a3, 10\n xor a1, a2, a3\n ret", 6},
		{"not", "movi a2, 0\n not a1, a2\n ret", 0xFFFFFFFF},
		{"sll", "movi a2, 1\n movi a3, 4\n sll a1, a2, a3\n ret", 16},
		{"slli", "movi a2, 3\n slli a1, a2, 2\n ret", 12},
		{"srl", "movi a2, 16\n movi a3, 2\n srl a1, a2, a3\n ret", 4},
		{"srli", "movi a2, -1\n srli a1, a2, 28\n ret", 15},
		{"sra_neg", "movi a2, -8\n movi a3, 2\n sra a1, a2, a3\n ret", 0xFFFFFFFE},
		{"srai", "movi a2, -16\n srai a1, a2, 2\n ret", 0xFFFFFFFC},
		{"slt_true", "movi a2, -1\n movi a3, 1\n slt a1, a2, a3\n ret", 1},
		{"slt_false", "movi a2, 1\n movi a3, -1\n slt a1, a2, a3\n ret", 0},
		{"sltu", "movi a2, -1\n movi a3, 1\n sltu a1, a2, a3\n ret", 0}, // 0xFFFFFFFF !< 1 unsigned
		{"slti", "movi a2, 3\n slti a1, a2, 5\n ret", 1},
		{"sltiu", "movi a2, 3\n sltiu a1, a2, 2\n ret", 0},
		{"movi", "movi a1, -100\n ret", 0xFFFFFF9C},
		{"mov", "movi a2, 42\n mov a1, a2\n ret", 42},
		{"moveqz_take", "movi a1, 1\n movi a2, 9\n movi a3, 0\n moveqz a1, a2, a3\n ret", 9},
		{"moveqz_keep", "movi a1, 1\n movi a2, 9\n movi a3, 5\n moveqz a1, a2, a3\n ret", 1},
		{"movnez", "movi a1, 1\n movi a2, 9\n movi a3, 5\n movnez a1, a2, a3\n ret", 9},
		{"movltz", "movi a1, 1\n movi a2, 9\n movi a3, -5\n movltz a1, a2, a3\n ret", 9},
		{"movgez", "movi a1, 1\n movi a2, 9\n movi a3, 5\n movgez a1, a2, a3\n ret", 9},
		{"mul", "movi a2, 7\n movi a3, -3\n mul a1, a2, a3\n ret", 0xFFFFFFEB},
		{"mulh", "movi a2, -1\n movi a3, 2\n mulh a1, a2, a3\n ret", 0xFFFFFFFF},
		{"mulhu", "movi a2, -1\n movi a3, 2\n mulhu a1, a2, a3\n ret", 1},
		{"min", "movi a2, -5\n movi a3, 3\n min a1, a2, a3\n ret", 0xFFFFFFFB},
		{"max", "movi a2, -5\n movi a3, 3\n max a1, a2, a3\n ret", 3},
		{"minu", "movi a2, -5\n movi a3, 3\n minu a1, a2, a3\n ret", 3},
		{"maxu", "movi a2, -5\n movi a3, 3\n maxu a1, a2, a3\n ret", 0xFFFFFFFB},
		{"abs", "movi a2, -9\n abs a1, a2\n ret", 9},
		{"sext8", "movi a2, 0x80\n sext8 a1, a2\n ret", 0xFFFFFF80},
		{"sext16", "movi a2, 0x8000\n sext16 a1, a2\n ret", 0xFFFF8000},
		{"clamps_hi", "movi a2, 300\n clamps a1, a2, 8\n ret", 127},
		{"clamps_lo", "movi a2, -300\n clamps a1, a2, 8\n ret", 0xFFFFFF80},
		{"clamps_pass", "movi a2, 100\n clamps a1, a2, 8\n ret", 100},
		{"nsau", "movi a2, 1\n nsau a1, a2\n ret", 31},
		{"nsau_zero", "movi a2, 0\n nsau a1, a2\n ret", 32},
		{"nsa_one", "movi a2, 1\n nsa a1, a2\n ret", 30},
		{"nsa_zero", "movi a2, 0\n nsa a1, a2\n ret", 31},
		{"nsa_minus1", "movi a2, -1\n nsa a1, a2\n ret", 31},
		// extui imm: shift=4, width-1=7 -> imm = 4 | 7<<5 = 228.
		{"extui", "movi a2, 0xABC0\n extui a1, a2, 228\n ret", 0xBC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := runSrc(t, tc.src)
			if res.Regs[1] != tc.want {
				t.Fatalf("a1 = %#x, want %#x", res.Regs[1], tc.want)
			}
		})
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	res, sim := runSrc(t, `
    movi a2, 0x1000
    movi a3, -2
    s32i a3, a2, 0
    l32i a1, a2, 0
    l16ui a4, a2, 0
    l16si a5, a2, 0
    l8ui a6, a2, 0
    l8si a7, a2, 0
    movi a8, 0x1234
    s16i a8, a2, 8
    l16ui a9, a2, 8
    s8i a8, a2, 12
    l8ui a10, a2, 12
    ret
`)
	if res.Regs[1] != 0xFFFFFFFE {
		t.Fatalf("l32i = %#x", res.Regs[1])
	}
	if res.Regs[4] != 0xFFFE {
		t.Fatalf("l16ui = %#x", res.Regs[4])
	}
	if res.Regs[5] != 0xFFFFFFFE {
		t.Fatalf("l16si = %#x", res.Regs[5])
	}
	if res.Regs[6] != 0xFE {
		t.Fatalf("l8ui = %#x", res.Regs[6])
	}
	if res.Regs[7] != 0xFFFFFFFE {
		t.Fatalf("l8si = %#x", res.Regs[7])
	}
	if res.Regs[9] != 0x1234 {
		t.Fatalf("s16i/l16ui = %#x", res.Regs[9])
	}
	if res.Regs[10] != 0x34 {
		t.Fatalf("s8i/l8ui = %#x", res.Regs[10])
	}
	w, err := sim.ReadWord(0x1000)
	if err != nil || w != 0xFFFFFFFE {
		t.Fatalf("memory word = %#x, %v", w, err)
	}
}

func TestL32RLoadsLiteral(t *testing.T) {
	res, _ := runSrc(t, `
    l32r a1, lit
    ret
.data 0x1000
lit: .word 123456
`)
	if res.Regs[1] != 123456 {
		t.Fatalf("l32r = %d", res.Regs[1])
	}
}

func TestUnalignedAccessFails(t *testing.T) {
	proc, _ := procgen.Generate(procgen.Default(), nil)
	prog, err := asm.New(proc.TIE).Assemble("t", "movi a2, 0x1001\n l32i a1, a2, 0\n ret")
	if err != nil {
		t.Fatal(err)
	}
	_, err = iss.New(proc).Run(prog, iss.Options{})
	if err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Fatalf("unaligned access: %v", err)
	}
}

func TestOutOfRangeAccessFails(t *testing.T) {
	proc, _ := procgen.Generate(procgen.Default(), nil)
	prog, err := asm.New(proc.TIE).Assemble("t", "movi a2, 0x1FFFC\n slli a2, a2, 8\n l32i a1, a2, 0\n ret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.New(proc).Run(prog, iss.Options{}); err == nil {
		t.Fatal("out-of-range access succeeded")
	}
}

func TestBranchesAndLoops(t *testing.T) {
	res, _ := runSrc(t, `
    movi a2, 0
    movi a3, 10
loop:
    addi a2, a2, 1
    blt a2, a3, loop
    mov a1, a2
    ret
`)
	if res.Regs[1] != 10 {
		t.Fatalf("loop result = %d", res.Regs[1])
	}
	st := res.Stats
	// 9 taken + 1 untaken blt.
	if st.ClassCycles[iss.CBranchUntaken] != 1 {
		t.Fatalf("untaken cycles = %d, want 1", st.ClassCycles[iss.CBranchUntaken])
	}
	if st.ClassCycles[iss.CBranchTaken] != 9*3 {
		t.Fatalf("taken cycles = %d, want 27 (9 x (1+2))", st.ClassCycles[iss.CBranchTaken])
	}
}

func TestCallRet(t *testing.T) {
	res, _ := runSrc(t, `
start:
    movi a2, 5
    call double
    mov a1, a2
    j end
double:
    add a2, a2, a2
    jx a0
end:
`)
	if res.Regs[1] != 10 {
		t.Fatalf("call/ret result = %d", res.Regs[1])
	}
	if res.Stats.ClassCycles[iss.CJump] == 0 {
		t.Fatal("no jump cycles recorded")
	}
}

func TestBitBranches(t *testing.T) {
	res, _ := runSrc(t, `
    movi a2, 0x10
    movi a1, 0
    bbsi a2, 4, set1
    j next
set1:
    movi a1, 1
next:
    bbci a2, 3, set2
    ret
set2:
    addi a1, a1, 2
    ret
`)
	if res.Regs[1] != 3 {
		t.Fatalf("bit branches result = %d, want 3", res.Regs[1])
	}
}

func TestHaltByFallingOffEnd(t *testing.T) {
	res, _ := runSrc(t, "movi a1, 7\n")
	if res.Regs[1] != 7 {
		t.Fatal("program did not run")
	}
}

func TestWatchdog(t *testing.T) {
	proc, _ := procgen.Generate(procgen.Default(), nil)
	prog, err := asm.New(proc.TIE).Assemble("t", "loop:\n j loop\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = iss.New(proc).Run(prog, iss.Options{MaxCycles: 1000})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("watchdog: %v", err)
	}
}

func TestInterlockCounting(t *testing.T) {
	res, _ := runSrc(t, `
    movi a2, 0x1000
    movi a3, 1
    s32i a3, a2, 0
    l32i a4, a2, 0
    add a5, a4, a4      ; load-use
    l32i a6, a2, 0
    nop
    add a7, a6, a6      ; gap: no interlock
    mul a8, a5, a7
    add a9, a8, a8      ; mult-use
    ret
`)
	if res.Stats.Interlocks != 2 {
		t.Fatalf("interlocks = %d, want 2", res.Stats.Interlocks)
	}
}

func TestCacheMissCounting(t *testing.T) {
	// Stride over 64KB: every line access misses after warmup.
	res, _ := runSrc(t, `
    movi a2, 0x4000
    movi a3, 2048
loop:
    l32i a4, a2, 0
    addi a2, a2, 32
    addi a3, a3, -1
    bnez a3, loop
    ret
`)
	if res.Stats.DCacheMisses != 2048 {
		t.Fatalf("dcache misses = %d, want 2048", res.Stats.DCacheMisses)
	}
	if res.Stats.ICacheMisses == 0 {
		t.Fatal("no cold icache misses")
	}
	if res.Stats.StallCycles == 0 {
		t.Fatal("no stall cycles for misses")
	}
}

func TestUncachedFetchCounting(t *testing.T) {
	res, _ := runSrc(t, `
    movi a2, 4
    j unc
.uncached
unc:
    addi a2, a2, -1
    bnez a2, unc
.cached
    ret
`)
	// 4 iterations x 2 instructions in the uncached region.
	if res.Stats.UncachedFetches != 8 {
		t.Fatalf("uncached fetches = %d, want 8", res.Stats.UncachedFetches)
	}
}

func TestClassCycleAccounting(t *testing.T) {
	res, _ := runSrc(t, `
    movi a2, 1
    movi a3, 2
    add a4, a2, a3
    ret
`)
	st := res.Stats
	if st.ClassCycles[iss.CArith] != 3 {
		t.Fatalf("arith cycles = %d, want 3", st.ClassCycles[iss.CArith])
	}
	// ret: 1 cycle, jump class (halt, no redirect penalty).
	if st.ClassCycles[iss.CJump] != 1 {
		t.Fatalf("jump cycles = %d, want 1", st.ClassCycles[iss.CJump])
	}
	total := st.CustomCycles + st.StallCycles
	for _, c := range st.ClassCycles {
		total += c
	}
	if total != st.Cycles {
		t.Fatalf("cycle accounting: %d classified vs %d total", total, st.Cycles)
	}
	if st.Retired != 4 {
		t.Fatalf("retired = %d", st.Retired)
	}
}

func TestTraceCollection(t *testing.T) {
	trace := recordTrace(t, "movi a1, 1\n movi a2, 2\n add a3, a1, a2\n ret\n")
	if len(trace) != 4 {
		t.Fatalf("trace length = %d", len(trace))
	}
	add := trace[2]
	if add.RsVal != 1 || add.RtVal != 2 || add.Result != 3 {
		t.Fatalf("trace operands: %+v", add)
	}
	if add.PC != 2 {
		t.Fatalf("trace pc = %d", add.PC)
	}
}

func TestCustomInstructionExecution(t *testing.T) {
	ext := &tie.Extension{
		Name:          "e",
		NumCustomRegs: 1,
		Instructions: []*tie.Instruction{
			{
				Name: "addacc", Latency: 3, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []tie.DatapathElem{{
					Component: hwlib.Component{Name: "au", Cat: hwlib.TIEAdd, Width: 32}, OnBus: true,
				}},
				Semantics: func(s *tie.State, op tie.Operands) uint32 {
					s.Regs[0] += op.RsVal + op.RtVal
					return s.Regs[0]
				},
			},
			{
				Name: "spin", Latency: 2, // no regfile access
				Datapath: []tie.DatapathElem{{
					Component: hwlib.Component{Name: "su", Cat: hwlib.CustomRegister, Width: 32},
				}},
				Semantics: func(s *tie.State, _ tie.Operands) uint32 {
					s.Regs[0]++
					return 0
				},
			},
		},
	}
	res, _ := runSrcExt(t, `
    movi a2, 10
    movi a3, 20
    addacc a1, a2, a3
    addacc a1, a1, a3
    spin a0, a0, a0
    ret
`, ext)
	if res.Regs[1] != 80 { // 30 then 30+30+20=80
		t.Fatalf("custom result = %d, want 80", res.Regs[1])
	}
	st := res.Stats
	if st.CustomCycles != 3+3+2 {
		t.Fatalf("custom cycles = %d, want 8", st.CustomCycles)
	}
	if st.CustomRegfileCycles != 6 {
		t.Fatalf("custom regfile cycles = %d, want 6 (spin excluded)", st.CustomRegfileCycles)
	}
	if st.CustomExec[0] != 2 || st.CustomExec[1] != 1 {
		t.Fatalf("custom exec counts = %v", st.CustomExec)
	}
	if res.TIE == nil || res.TIE.Regs[0] != 81 {
		t.Fatalf("TIE state = %+v, want acc 81", res.TIE)
	}
}

func TestStatsString(t *testing.T) {
	res, _ := runSrc(t, "movi a1, 1\n ret\n")
	s := res.Stats.String()
	for _, want := range []string{"cycles=", "arith", "icache-miss"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats string missing %q:\n%s", want, s)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	p := &iss.Program{Name: "x"}
	if p.Validate() == nil {
		t.Fatal("empty program validated")
	}
	p.Code = []isa.Instr{{Op: isa.OpNOP}}
	p.Entry = 5
	if p.Validate() == nil {
		t.Fatal("out-of-range entry validated")
	}
	p.Entry = 0
	p.Uncached = []bool{true, false}
	if p.Validate() == nil {
		t.Fatal("mismatched uncached flags validated")
	}
	p.Uncached = nil
	p.Code = []isa.Instr{{}}
	if p.Validate() == nil {
		t.Fatal("invalid opcode validated")
	}
}

func TestCPI(t *testing.T) {
	res, _ := runSrc(t, "movi a1, 1\n movi a2, 2\n ret\n")
	if cpi := res.Stats.CPI(); cpi <= 0 {
		t.Fatalf("cpi = %g", cpi)
	}
	var empty iss.Stats
	if empty.CPI() != 0 {
		t.Fatal("CPI of empty stats")
	}
}

func TestCustomImmediateExecution(t *testing.T) {
	ext := &tie.Extension{
		Name: "e",
		Instructions: []*tie.Instruction{
			{
				Name: "addk", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
				Datapath: []tie.DatapathElem{{
					Component: hwlib.Component{Name: "u", Cat: hwlib.TIEAdd, Width: 32},
				}},
				Semantics: func(_ *tie.State, op tie.Operands) uint32 {
					return op.RsVal + uint32(op.Imm)
				},
			},
		},
	}
	res, _ := runSrcExt(t, `
    movi a2, 100
    addk a1, a2, -5
    addk a3, a1, 31
    ret
`, ext)
	if res.Regs[1] != 95 {
		t.Fatalf("addk a1 = %d, want 95", res.Regs[1])
	}
	if res.Regs[3] != 126 {
		t.Fatalf("addk a3 = %d, want 126", res.Regs[3])
	}
}
