package workloads

import (
	"reflect"
	"slices"
	"testing"

	"xtenergy/internal/core"
	"xtenergy/internal/tie"
)

// extShape is e's structure without its semantics functions, which no
// two builds of the registry share.
func extShape(e *tie.Extension) any {
	if e == nil {
		return nil
	}
	ins := make([]tie.Instruction, len(e.Instructions))
	for i, in := range e.Instructions {
		ins[i] = *in
		ins[i].Semantics = nil
	}
	return struct {
		Name         string
		Regs         int
		Instructions []tie.Instruction
		Tables       map[string][]uint32
	}{e.Name, e.NumCustomRegs, ins, e.Tables}
}

// TestByNameMatchesAll checks the name index against a fresh build of
// the registry: for every name Names lists, ByName returns the All()
// workload of that name, with the same source, lint exemptions and
// extension structure.
func TestByNameMatchesAll(t *testing.T) {
	all := All()
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names lists %d workloads, All builds %d", len(names), len(all))
	}
	for _, name := range names {
		i := slices.IndexFunc(all, func(w core.Workload) bool { return w.Name == name })
		if i < 0 {
			t.Fatalf("Names lists %q, which All does not build", name)
		}
		w := all[i]
		got, ok := ByName(name)
		switch {
		case !ok:
			t.Fatalf("ByName(%q) not found", name)
		case got.Name != w.Name || got.Source != w.Source:
			t.Errorf("ByName(%q): name or source differs from All()", name)
		case !slices.Equal(got.LintExempt, w.LintExempt):
			t.Errorf("ByName(%q): lint exemptions %v, want %v", name, got.LintExempt, w.LintExempt)
		case !reflect.DeepEqual(extShape(got.Ext), extShape(w.Ext)):
			t.Errorf("ByName(%q): extension differs from All()", name)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal(`ByName("nosuch") found a workload`)
	}
	names[0] = "overwritten"
	if Names()[0] == "overwritten" {
		t.Fatal("Names returned the index's own slice")
	}
}
