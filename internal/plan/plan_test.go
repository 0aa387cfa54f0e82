package plan_test

import (
	"testing"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/plan"
	"xtenergy/internal/tie"
)

// immExt declares an immediate-form and a register-form custom
// instruction over the same adder datapath — the pair the PR-1
// phantom-interlock regression needs.
func immExt(t *testing.T) *tie.Compiled {
	t.Helper()
	dp := []tie.DatapathElem{{
		Component: hwlib.Component{Name: "u", Cat: hwlib.TIEAdd, Width: 32},
	}}
	comp, err := tie.Compile(&tie.Extension{
		Name: "plantest",
		Instructions: []*tie.Instruction{
			{
				Name: "addk", Latency: 1, ReadsGeneral: true, WritesGeneral: true, ImmOperand: true,
				Datapath:  dp,
				Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal + uint32(op.Imm) },
			},
			{
				Name: "gadd", Latency: 2, ReadsGeneral: true, WritesGeneral: true,
				Datapath:  dp,
				Semantics: func(_ *tie.State, op tie.Operands) uint32 { return op.RsVal + op.RtVal },
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestImmFormRtNoPhantomRead is the plan-level regression for the PR-1
// phantom-interlock bug: the Rt field of an immediate-form custom
// instruction is a constant, so the record must not present it as a
// bus-latched register read (which would arm the interlock comparator
// whenever the constant aliases the previous load's destination), while
// the register form and the Rs field must keep their genuine reads.
func TestImmFormRtNoPhantomRead(t *testing.T) {
	comp := immExt(t)
	// addk a1, a2, 3 — the constant 3 aliases register a3.
	imm := isa.Instr{Op: isa.OpCUSTOM, CustomID: 0, Rd: 1, Rs: 2, Rt: 3}
	rec := plan.Describe(comp, imm)
	if rec.Use.ReadsRt || rec.PUse.ReadsRt {
		t.Fatalf("imm-form Rt presented as a register read: Use=%+v PUse=%+v", rec.Use, rec.PUse)
	}
	if !rec.Use.ReadsRs || !rec.PUse.ReadsRs {
		t.Fatalf("imm-form must keep its genuine Rs read: %+v", rec.Use)
	}
	if rec.Use.Reads&(1<<3) != 0 {
		t.Fatalf("constant 3 leaked into the architectural read set: %064b", rec.Use.Reads)
	}
	if rec.SImm != 3 {
		t.Fatalf("SImm = %d, want 3", rec.SImm)
	}

	reg := isa.Instr{Op: isa.OpCUSTOM, CustomID: 1, Rd: 1, Rs: 2, Rt: 3}
	rrec := plan.Describe(comp, reg)
	if !rrec.Use.ReadsRt || rrec.Use.Reads&(1<<3) == 0 {
		t.Fatalf("register-form Rt read lost: %+v", rrec.Use)
	}

	// Branch-RI compares carry a constant in Rt through the same
	// encoding; register-register branches read it.
	if plan.Describe(comp, isa.Instr{Op: isa.OpBEQI, Rs: 2, Rt: 3}).Use.ReadsRt {
		t.Fatal("beqi's constant presented as a register read")
	}
	if !plan.Describe(comp, isa.Instr{Op: isa.OpBEQ, Rs: 2, Rt: 3}).Use.ReadsRt {
		t.Fatal("beq's Rt read lost")
	}
}

// TestImm6RoundTrip pins the shared 6-bit constant codec: every
// encodable value round-trips, and out-of-range values are rejected —
// the single range check the assembler now relies on.
func TestImm6RoundTrip(t *testing.T) {
	if plan.MinImm6 != -32 || plan.MaxImm6 != 31 {
		t.Fatalf("imm6 range [%d,%d], want [-32,31]", plan.MinImm6, plan.MaxImm6)
	}
	for v := int64(plan.MinImm6); v <= plan.MaxImm6; v++ {
		rt, ok := plan.EncodeImm6(v)
		if !ok {
			t.Fatalf("EncodeImm6(%d) rejected an in-range value", v)
		}
		if got := plan.DecodeImm6(rt); int64(got) != v {
			t.Fatalf("DecodeImm6(EncodeImm6(%d)) = %d", v, got)
		}
	}
	for _, v := range []int64{plan.MinImm6 - 1, plan.MaxImm6 + 1, 1000, -1000} {
		if _, ok := plan.EncodeImm6(v); ok {
			t.Fatalf("EncodeImm6(%d) accepted an out-of-range value", v)
		}
	}
	// The decoder sign-extends only the low 6 bits, mirroring the
	// hardware immediate-generation logic on a full 8-bit field.
	if got := plan.DecodeImm6(0x3F); got != -1 {
		t.Fatalf("DecodeImm6(0x3F) = %d, want -1", got)
	}
}

// TestBuildResolvesTargets checks the static control-flow resolution:
// branch/jump/loop targets come out of the record, not out of re-doing
// pc arithmetic at every consumer.
func TestBuildResolvesTargets(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.OpMOVI, Rd: 2, Imm: 5},      // 0
		{Op: isa.OpBNEZ, Rs: 2, Imm: 2},      // 1 -> 1+1+2 = 4
		{Op: isa.OpJ, Imm: 0},                // 2 -> 0
		{Op: isa.OpLOOP, Rs: 2, Imm: 1},      // 3 -> end 3+1+1 = 5
		{Op: isa.OpADD, Rd: 1, Rs: 2, Rt: 3}, // 4
		{Op: isa.OpRET},                      // 5
	}
	p := plan.Build(code, []bool{false, false, false, false, false, true}, nil)
	wantTargets := []int{-1, 4, 0, 5, -1, -1}
	for pc, want := range wantTargets {
		if got := p.Recs[pc].Target; got != want {
			t.Errorf("Recs[%d].Target = %d, want %d", pc, got, want)
		}
	}
	for pc := range code {
		if got, want := p.Recs[pc].FetchAddr, uint32(4*pc); got != want {
			t.Errorf("Recs[%d].FetchAddr = %#x, want %#x", pc, got, want)
		}
	}
	if p.Recs[4].Uncached || !p.Recs[5].Uncached {
		t.Errorf("uncached flags wrong: %v %v", p.Recs[4].Uncached, p.Recs[5].Uncached)
	}
	if p.Recs[0].IsShift || !p.Recs[0].Valid {
		t.Errorf("movi record misclassified: %+v", p.Recs[0])
	}
}

// TestBuildMatchesDescribe: a plan record differs from the standalone
// Describe record only in its position-dependent fields — the guarantee
// that lets trace-entry consumers fall back to Describe for entries
// that no longer match their record.
func TestBuildMatchesDescribe(t *testing.T) {
	comp := immExt(t)
	code := []isa.Instr{
		{Op: isa.OpL32I, Rd: 3, Rs: 2, Imm: 0},
		{Op: isa.OpCUSTOM, CustomID: 0, Rd: 1, Rs: 2, Rt: 3},
		{Op: isa.OpMUL, Rd: 4, Rs: 3, Rt: 3},
		{Op: isa.OpBEQI, Rs: 4, Rt: 0x3F, Imm: -2},
	}
	p := plan.Build(code, nil, comp)
	for pc, in := range code {
		got := p.Recs[pc]
		want := plan.Describe(comp, in)
		// Neutralize the position-dependent fields.
		got.FetchAddr, got.Uncached, got.Target = 0, false, -1
		if got.Use != want.Use || got.PUse != want.PUse || got.Def != want.Def ||
			got.CI != want.CI || got.SImm != want.SImm ||
			got.IsMult != want.IsMult || got.IsShift != want.IsShift ||
			got.RegfileActive != want.RegfileActive {
			t.Errorf("pc %d: Build rec %+v != Describe rec %+v", pc, got, want)
		}
	}
	// The branch-RI constant decodes through the shared codec.
	if p.Recs[3].SImm != -1 {
		t.Errorf("beqi SImm = %d, want -1", p.Recs[3].SImm)
	}
	// Custom attributes come from the compiled extension.
	if p.Recs[1].CI == nil || p.Recs[1].CI.Name != "addk" {
		t.Fatalf("custom record not resolved: %+v", p.Recs[1].CI)
	}
	w, err := comp.CategoryActiveWeights(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Recs[1].CustomWeights != w {
		t.Errorf("CustomWeights = %v, want %v", p.Recs[1].CustomWeights, w)
	}
	if p.Recs[2].Use.IsMult != true || p.Recs[2].IsMult != true {
		t.Errorf("mul not classified as multiplier: %+v", p.Recs[2])
	}
}

// TestUndefinedCustomAndInvalidOpcode: plans are built for unvalidated
// programs, so undefined extensions and invalid opcodes must yield
// tolerant records (CI nil, Valid false, no ports) for the simulator
// and xlint to fault on.
func TestUndefinedCustomAndInvalidOpcode(t *testing.T) {
	comp := immExt(t)
	p := plan.Build([]isa.Instr{
		{Op: isa.OpCUSTOM, CustomID: 63, Rd: 1, Rs: 2, Rt: 3},
		{Op: isa.Opcode(250)},
	}, nil, comp)
	if r := p.Recs[0]; r.CI != nil || r.Use != (plan.RegUse{}) {
		t.Errorf("undefined custom must have no ports: %+v", r)
	}
	if r := p.Recs[1]; r.Valid || r.Def != (isa.Def{}) {
		t.Errorf("invalid opcode must yield a zero Def: %+v", r)
	}
	if p.Rec(-1) != nil || p.Rec(2) != nil {
		t.Error("out-of-range Rec lookup must return nil")
	}
	if p.Rec(0) != &p.Recs[0] {
		t.Error("Rec(0) must alias the record")
	}
}

// TestDescribeAllocationFree pins the fallback path used per corrupted
// trace entry: resolving a standalone record allocates nothing.
func TestDescribeAllocationFree(t *testing.T) {
	comp := immExt(t)
	ins := []isa.Instr{
		{Op: isa.OpADD, Rd: 1, Rs: 2, Rt: 3},
		{Op: isa.OpCUSTOM, CustomID: 1, Rd: 1, Rs: 2, Rt: 3},
		{Op: isa.OpL32I, Rd: 3, Rs: 2},
	}
	var sink plan.Rec
	if avg := testing.AllocsPerRun(100, func() {
		for _, in := range ins {
			sink = plan.Describe(comp, in)
		}
	}); avg != 0 {
		t.Errorf("Describe allocates %v objects per call, want 0", avg)
	}
	_ = sink
}
