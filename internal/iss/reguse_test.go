package iss_test

import (
	"testing"

	"xtenergy/internal/asm"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/plan"
	"xtenergy/internal/procgen"
)

// TestRegUseOfMatchesDefs cross-checks the architectural read/write
// bitmasks against the ISA definition table for every base opcode: the
// bus-latched operand ports must always be a subset of the architectural
// sets, and the Rd write bit must track WritesRd.
func TestRegUseOfMatchesDefs(t *testing.T) {
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		d, ok := isa.Lookup(op)
		if !ok {
			continue
		}
		in := isa.Instr{Op: op, Rd: 5, Rs: 6, Rt: 7}
		u := plan.RegUseOf(nil, in)
		if u.ReadsRs != d.ReadsRs || u.ReadsRt != d.ReadsRt || u.WritesRd != d.WritesRd {
			t.Errorf("%s: port flags (%v,%v,%v) disagree with defs (%v,%v,%v)",
				d.Name, u.ReadsRs, u.ReadsRt, u.WritesRd, d.ReadsRs, d.ReadsRt, d.WritesRd)
		}
		if d.ReadsRs && u.Reads&(1<<6) == 0 {
			t.Errorf("%s: ReadsRs set but Rs bit missing from Reads", d.Name)
		}
		if d.ReadsRt && u.Reads&(1<<7) == 0 {
			t.Errorf("%s: ReadsRt set but Rt bit missing from Reads", d.Name)
		}
		if d.WritesRd && u.Writes&(1<<5) == 0 {
			t.Errorf("%s: WritesRd set but Rd bit missing from Writes", d.Name)
		}
		if !d.WritesRd && op != isa.OpCALL && op != isa.OpCALLX && u.Writes != 0 {
			t.Errorf("%s: no Rd write but Writes=%#x", d.Name, u.Writes)
		}
		if u.IsLoad != (d.Class == isa.ClassLoad) {
			t.Errorf("%s: IsLoad=%v, class=%v", d.Name, u.IsLoad, d.Class)
		}
	}
}

// TestRegUseOfArchitecturalExtras pins the reads/writes that go beyond
// the bus-latched operand fields: store data registers, conditional-move
// old values, and the link register a0.
func TestRegUseOfArchitecturalExtras(t *testing.T) {
	cases := []struct {
		name        string
		in          isa.Instr
		wantR, want uint64 // extra Reads bits, extra Writes bits
	}{
		{"s32i_reads_rd", isa.Instr{Op: isa.OpS32I, Rd: 3, Rs: 4}, 1 << 3, 0},
		{"s8i_reads_rd", isa.Instr{Op: isa.OpS8I, Rd: 9, Rs: 4}, 1 << 9, 0},
		{"moveqz_reads_rd", isa.Instr{Op: isa.OpMOVEQZ, Rd: 2, Rs: 3, Rt: 4}, 1 << 2, 0},
		{"ret_reads_a0", isa.Instr{Op: isa.OpRET}, 1 << 0, 0},
		{"call_writes_a0", isa.Instr{Op: isa.OpCALL}, 0, 1 << 0},
		{"callx_writes_a0", isa.Instr{Op: isa.OpCALLX, Rs: 5}, 0, 1 << 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := plan.RegUseOf(nil, tc.in)
			if tc.wantR != 0 && u.Reads&tc.wantR != tc.wantR {
				t.Errorf("Reads=%#x missing bits %#x", u.Reads, tc.wantR)
			}
			if tc.want != 0 && u.Writes&tc.want != tc.want {
				t.Errorf("Writes=%#x missing bits %#x", u.Writes, tc.want)
			}
		})
	}

	// L32R is a load whose Rs field is a literal-pool index, not a register.
	u := plan.RegUseOf(nil, isa.Instr{Op: isa.OpL32R, Rd: 2, Rs: 63})
	if u.ReadsRs || u.Reads&(1<<63) != 0 {
		t.Errorf("L32R must not read its Rs literal index: %+v", u)
	}
	if !u.IsLoad {
		t.Error("L32R must classify as a load for hazard purposes")
	}
}

// TestRegUseOfCustomForms verifies the immediate/register distinction for
// TIE instructions: the immediate form's Rt field is a constant, not a
// register read (the phantom-interlock class fixed in PR 1).
func TestRegUseOfCustomForms(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), immExt())
	if err != nil {
		t.Fatal(err)
	}
	// Custom IDs follow immExt's declaration order.
	const addk, gadd = 0, 1

	imm := plan.RegUseOf(proc.TIE, isa.Instr{Op: isa.OpCUSTOM, CustomID: addk, Rd: 1, Rs: 2, Rt: 3})
	if !imm.ReadsRs || imm.ReadsRt {
		t.Errorf("imm form: ReadsRs=%v ReadsRt=%v, want true,false", imm.ReadsRs, imm.ReadsRt)
	}
	if imm.Reads != 1<<2 || imm.Writes != 1<<1 || !imm.WritesRd {
		t.Errorf("imm form: Reads=%#x Writes=%#x WritesRd=%v", imm.Reads, imm.Writes, imm.WritesRd)
	}

	reg := plan.RegUseOf(proc.TIE, isa.Instr{Op: isa.OpCUSTOM, CustomID: gadd, Rd: 1, Rs: 2, Rt: 3})
	if !reg.ReadsRs || !reg.ReadsRt || reg.Reads != 1<<2|1<<3 {
		t.Errorf("reg form: ReadsRs=%v ReadsRt=%v Reads=%#x", reg.ReadsRs, reg.ReadsRt, reg.Reads)
	}

	// A nil compilation reports no ports for custom instructions.
	none := plan.RegUseOf(nil, isa.Instr{Op: isa.OpCUSTOM, CustomID: addk, Rs: 2})
	if none.Reads != 0 || none.Writes != 0 {
		t.Errorf("nil compiled: Reads=%#x Writes=%#x, want 0,0", none.Reads, none.Writes)
	}
}

// TestRecordUninitReads exercises the dynamic ground truth the xlint
// initialization analysis is validated against: reads of never-written
// registers are recorded once per (pc, register), a0 counts as
// initialized (reset loads the halt sentinel), and clean programs record
// nothing.
func TestRecordUninitReads(t *testing.T) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string) *iss.Result {
		t.Helper()
		prog := mustAssembleSrc(t, src)
		res, err := iss.New(proc).Run(prog, iss.Options{RecordUninitReads: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// a3 is read before any write; a2 is written first. The add reads
	// both a2 (clean) and a3 (dirty) at pc 1.
	res := run(`
    movi a2, 7
    add a1, a2, a3
    ret
`)
	if len(res.UninitReads) != 1 || res.UninitReads[0] != (iss.UninitRead{PC: 1, Reg: 3}) {
		t.Fatalf("UninitReads = %v, want [{PC:1 Reg:3}]", res.UninitReads)
	}

	// The same pc re-executed in a loop reports the register once.
	res = run(`
    movi a2, 3
loop:
    add a1, a1, a4
    addi a2, a2, -1
    bnez a2, loop
    ret
`)
	var hits int
	for _, ur := range res.UninitReads {
		if ur.Reg == 4 {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("a4 reported %d times, want 1 (dedup per pc,reg): %v", hits, res.UninitReads)
	}
	// a1 is also read uninitialized by the add.
	if len(res.UninitReads) != 2 {
		t.Fatalf("UninitReads = %v, want a1 and a4", res.UninitReads)
	}

	// ret reads a0, which reset initializes: a clean program records nothing.
	res = run(`
    movi a2, 1
    add a1, a2, a2
    ret
`)
	if len(res.UninitReads) != 0 {
		t.Fatalf("clean program recorded %v", res.UninitReads)
	}
}

func mustAssembleSrc(t *testing.T, src string) *iss.Program {
	t.Helper()
	prog, err := asm.New(nil).Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
