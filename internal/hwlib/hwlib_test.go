package hwlib

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCategoriesComplete(t *testing.T) {
	cats := Categories()
	if len(cats) != NumCategories || NumCategories != 10 {
		t.Fatalf("got %d categories, want the paper's 10", len(cats))
	}
	seen := map[string]bool{}
	for _, c := range cats {
		name := c.String()
		if seen[name] {
			t.Fatalf("duplicate category name %q", name)
		}
		seen[name] = true
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		Multiplier:     "mult",
		AddSubCmp:      "add/sub/cmp",
		LogicRedMux:    "logic/red/mux",
		Shifter:        "shifter",
		CustomRegister: "custom-reg",
		TIEMult:        "tie-mult",
		TIEMac:         "tie-mac",
		TIEAdd:         "tie-add",
		TIECsa:         "tie-csa",
		Table:          "table",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestQuadraticCategories(t *testing.T) {
	// The paper: multiplier-like structures scale quadratically with
	// bit-width, the rest linearly.
	for _, c := range Categories() {
		want := c == Multiplier || c == TIEMult || c == TIEMac
		if c.Quadratic() != want {
			t.Fatalf("%s.Quadratic() = %v, want %v", c, c.Quadratic(), want)
		}
	}
}

func TestComplexityReference(t *testing.T) {
	// A 32-bit instance (16x32 table) has complexity exactly 1.
	for _, c := range Categories() {
		comp := Component{Name: "x", Cat: c, Width: 32}
		if c == Table {
			comp.Entries = 16
		}
		if got := comp.Complexity(); math.Abs(got-1) > 1e-12 {
			t.Fatalf("%s reference complexity = %g, want 1", c, got)
		}
	}
}

func TestComplexityScaling(t *testing.T) {
	lin := Component{Name: "a", Cat: AddSubCmp, Width: 64}
	if lin.Complexity() != 2 {
		t.Fatalf("64-bit adder complexity = %g, want 2 (linear)", lin.Complexity())
	}
	quad := Component{Name: "m", Cat: Multiplier, Width: 64}
	if quad.Complexity() != 4 {
		t.Fatalf("64-bit multiplier complexity = %g, want 4 (quadratic)", quad.Complexity())
	}
	tab := Component{Name: "t", Cat: Table, Width: 8, Entries: 512}
	want := 512.0 * 8 / (16 * 32)
	if tab.Complexity() != want {
		t.Fatalf("table complexity = %g, want %g", tab.Complexity(), want)
	}
}

func TestValidate(t *testing.T) {
	good := []Component{
		{Name: "m", Cat: Multiplier, Width: 16},
		{Name: "t", Cat: Table, Width: 8, Entries: 256},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Fatalf("valid component rejected: %v", err)
		}
	}
	bad := []Component{
		{Name: "", Cat: Multiplier, Width: 16},
		{Name: "x", Cat: Category(200), Width: 16},
		{Name: "x", Cat: Multiplier, Width: 0},
		{Name: "x", Cat: Multiplier, Width: 1000},
		{Name: "x", Cat: Table, Width: 8},                   // table without entries
		{Name: "x", Cat: Table, Width: 8, Entries: 1 << 20}, // too many entries
		{Name: "x", Cat: AddSubCmp, Width: 8, Entries: 4},   // entries on non-table
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad component %d accepted: %+v", i, c)
		}
	}
}

// Property: complexity is positive and monotonically non-decreasing in
// width for every category.
func TestComplexityMonotoneProperty(t *testing.T) {
	f := func(catRaw, w1Raw, w2Raw uint8) bool {
		cat := Category(int(catRaw) % NumCategories)
		w1 := 1 + int(w1Raw)%128
		w2 := 1 + int(w2Raw)%128
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		entries := 0
		if cat == Table {
			entries = 64
		}
		c1 := Component{Name: "a", Cat: cat, Width: w1, Entries: entries}
		c2 := Component{Name: "b", Cat: cat, Width: w2, Entries: entries}
		return c1.Complexity() > 0 && c1.Complexity() <= c2.Complexity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Categories returns all ten categories in Table I order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}
