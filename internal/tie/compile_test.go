package tie

import (
	"testing"

	"xtenergy/internal/hwlib"
)

func testExt() *Extension {
	return &Extension{
		Name:          "t",
		NumCustomRegs: 2,
		Instructions: []*Instruction{
			{
				Name: "mul16", Latency: 2, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []DatapathElem{
					{Component: hwlib.Component{Name: "mul", Cat: hwlib.Multiplier, Width: 16}, OnBus: true},
					{Component: hwlib.Component{Name: "acc", Cat: hwlib.CustomRegister, Width: 32}},
				},
				Semantics: func(_ *State, op Operands) uint32 { return op.RsVal * op.RtVal },
			},
			{
				Name: "share", Latency: 1, ReadsGeneral: true, WritesGeneral: true,
				Datapath: []DatapathElem{
					{Component: hwlib.Component{Name: "acc", Cat: hwlib.CustomRegister, Width: 32}},
					{Component: hwlib.Component{Name: "xorer", Cat: hwlib.LogicRedMux, Width: 32}},
				},
				Semantics: noop,
			},
		},
	}
}

func TestCompileNil(t *testing.T) {
	c, err := Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInstructions() != 0 || len(c.Components) != 0 {
		t.Fatal("nil extension compiled to non-empty hardware")
	}
	if _, err := c.Instruction(0); err == nil {
		t.Fatal("instruction lookup on empty compile succeeded")
	}
}

func TestCompileGeneratesControlLogic(t *testing.T) {
	c, err := Compile(testExt())
	if err != nil {
		t.Fatal(err)
	}
	// Decoder, bypass, interlock + custom regfile.
	if len(c.ControlIdx) != 4 {
		t.Fatalf("control blocks = %d, want 4", len(c.ControlIdx))
	}
	names := map[string]bool{}
	for _, comp := range c.Components {
		names[comp.Name] = true
	}
	for _, want := range []string{"tie_decoder", "tie_bypass", "tie_interlock", "tie_regfile"} {
		if !names[want] {
			t.Fatalf("generated control block %q missing", want)
		}
	}
}

func TestCompileNoRegfileWhenNoCustomRegs(t *testing.T) {
	ext := testExt()
	ext.NumCustomRegs = 0
	c, err := Compile(ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IDByName("mul16"); !ok {
		t.Fatal("instruction missing")
	}
	for _, comp := range c.Components {
		if comp.Name == "tie_regfile" {
			t.Fatal("custom regfile generated despite zero registers")
		}
	}
}

func TestCompileSharesComponents(t *testing.T) {
	c, err := Compile(testExt())
	if err != nil {
		t.Fatal(err)
	}
	// "acc" appears in both instructions but must exist once.
	count := 0
	for _, comp := range c.Components {
		if comp.Name == "acc" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared component instantiated %d times", count)
	}
	// Both instructions' active sets include it.
	accIdx := -1
	for i, comp := range c.Components {
		if comp.Name == "acc" {
			accIdx = i
		}
	}
	for id := 0; id < 2; id++ {
		found := false
		for _, idx := range c.ActiveByInstr[id] {
			if idx == accIdx {
				found = true
			}
		}
		if !found {
			t.Fatalf("instruction %d does not activate shared component", id)
		}
	}
}

func TestCompileRejectsConflictingShare(t *testing.T) {
	ext := testExt()
	// Same name, different width.
	ext.Instructions[1].Datapath[0].Component.Width = 64
	if _, err := Compile(ext); err == nil {
		t.Fatal("conflicting component redefinition accepted")
	}
}

func TestCompileBusTaps(t *testing.T) {
	c, err := Compile(testExt())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.BusTapped) != 1 {
		t.Fatalf("bus taps = %d, want 1", len(c.BusTapped))
	}
	if c.Components[c.BusTapped[0]].Name != "mul" {
		t.Fatal("wrong component tapped")
	}
	w := c.BusTapWeights()
	wantMul := hwlib.Component{Name: "mul", Cat: hwlib.Multiplier, Width: 16}.Complexity()
	if w[hwlib.Multiplier] != wantMul {
		t.Fatalf("bus tap weight = %g, want %g", w[hwlib.Multiplier], wantMul)
	}
}

func TestCategoryActiveWeights(t *testing.T) {
	c, err := Compile(testExt())
	if err != nil {
		t.Fatal(err)
	}
	id, ok := c.IDByName("mul16")
	if !ok {
		t.Fatal("mul16 missing")
	}
	w, err := c.CategoryActiveWeights(id)
	if err != nil {
		t.Fatal(err)
	}
	// Multiplier 16-bit: (16/32)^2 = 0.25.
	if w[hwlib.Multiplier] != 0.25 {
		t.Fatalf("multiplier weight = %g, want 0.25", w[hwlib.Multiplier])
	}
	// Control logic contributes logic/red/mux weight on every custom
	// instruction.
	if w[hwlib.LogicRedMux] <= 0 {
		t.Fatal("control logic weight missing")
	}
	// Custom register: instruction's acc (32-bit -> 1) + generated
	// regfile.
	if w[hwlib.CustomRegister] <= 1 {
		t.Fatalf("custom register weight = %g, want > 1", w[hwlib.CustomRegister])
	}
	if _, err := c.CategoryActiveWeights(99); err == nil {
		t.Fatal("weights for bogus id")
	}
}

func TestIDAssignmentOrder(t *testing.T) {
	c, err := Compile(testExt())
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := c.IDByName("mul16")
	id1, _ := c.IDByName("share")
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d; want 0,1", id0, id1)
	}
	in, err := c.Instruction(0)
	if err != nil || in.Name != "mul16" {
		t.Fatalf("Instruction(0) = %v, %v", in, err)
	}
}

func TestCompileValidates(t *testing.T) {
	if _, err := Compile(&Extension{Name: ""}); err == nil {
		t.Fatal("invalid extension compiled")
	}
}

// IDByName returns the opcode id assigned to the named custom
// instruction.
func (c *Compiled) IDByName(name string) (uint8, bool) {
	id, ok := c.byName[name]
	return id, ok
}
