package isa

import (
	"testing"
	"testing/quick"
)

func TestBaseOpcodeCount(t *testing.T) {
	// "The base ISA defines approximately 80 instructions."
	n := len(BaseOpcodes())
	if n < 70 || n > 90 {
		t.Fatalf("base ISA has %d instructions, want ~80", n)
	}
}

func TestEveryBaseOpcodeHasDef(t *testing.T) {
	for _, op := range BaseOpcodes() {
		d, ok := Lookup(op)
		if !ok {
			t.Fatalf("opcode %d has no definition", op)
		}
		if d.Name == "" {
			t.Fatalf("opcode %d has empty mnemonic", op)
		}
		if d.Cycles < 1 {
			t.Fatalf("%s has %d cycles", d.Name, d.Cycles)
		}
		if d.Op != op {
			t.Fatalf("%s definition self-reference mismatch", d.Name)
		}
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, op := range BaseOpcodes() {
		d, _ := Lookup(op)
		got, ok := ByName(d.Name)
		if !ok || got != op {
			t.Fatalf("ByName(%q) = %v, %v; want %v", d.Name, got, ok, op)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("ByName accepted a bogus mnemonic")
	}
}

func TestMnemonicsUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for _, op := range BaseOpcodes() {
		d, _ := Lookup(op)
		if prev, dup := seen[d.Name]; dup {
			t.Fatalf("mnemonic %q used by %v and %v", d.Name, prev, op)
		}
		seen[d.Name] = op
	}
}

func TestLookupInvalid(t *testing.T) {
	if _, ok := Lookup(OpInvalid); ok {
		t.Fatal("OpInvalid looked up")
	}
	if _, ok := Lookup(Opcode(255)); ok {
		t.Fatal("out-of-range opcode looked up")
	}
	if OpInvalid.Name() != "invalid" {
		t.Fatalf("OpInvalid name = %q", OpInvalid.Name())
	}
}

func TestClassCoverage(t *testing.T) {
	counts := map[Class]int{}
	for _, op := range BaseOpcodes() {
		counts[ClassOf(op)]++
	}
	for _, c := range []Class{ClassArith, ClassLoad, ClassStore, ClassJump, ClassBranch} {
		if counts[c] == 0 {
			t.Fatalf("no instructions in class %s", c)
		}
	}
	if counts[ClassArith] < 30 {
		t.Fatalf("arith class suspiciously small: %d", counts[ClassArith])
	}
	if counts[ClassBranch] < 15 {
		t.Fatalf("branch class suspiciously small: %d", counts[ClassBranch])
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassArith:         "arith",
		ClassLoad:          "load",
		ClassStore:         "store",
		ClassJump:          "jump",
		ClassBranch:        "branch",
		ClassBranchTaken:   "branch-taken",
		ClassBranchUntaken: "branch-untaken",
		ClassCustom:        "custom",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Class(200).String() != "invalid" {
		t.Fatal("out-of-range class string")
	}
}

func TestRegisterUsageConsistency(t *testing.T) {
	for _, op := range BaseOpcodes() {
		d, _ := Lookup(op)
		switch d.Format {
		case FormatRRR:
			if !d.ReadsRs || !d.ReadsRt || !d.WritesRd {
				t.Errorf("%s: RRR format must read rs,rt and write rd", d.Name)
			}
		case FormatBranchRR:
			if !d.ReadsRs || !d.ReadsRt || d.WritesRd {
				t.Errorf("%s: branch must read rs,rt and not write rd", d.Name)
			}
		case FormatMem:
			if ClassOf(op) == ClassLoad && !d.WritesRd {
				t.Errorf("%s: load must write rd", d.Name)
			}
			if ClassOf(op) == ClassStore && d.WritesRd {
				t.Errorf("%s: store must not write rd", d.Name)
			}
		}
	}
}

func TestParseReg(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint8
		ok   bool
	}{
		{"a0", 0, true}, {"a63", 63, true}, {"A5", 5, true},
		{"a64", 0, false}, {"a-1", 0, false}, {"b0", 0, false}, {"a", 0, false}, {"", 0, false},
	} {
		got, err := ParseReg(tc.in)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseReg(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseReg(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRegNameRoundTripProperty(t *testing.T) {
	f := func(r uint8) bool {
		r %= NumRegs
		got, err := ParseReg(RegName(r))
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
