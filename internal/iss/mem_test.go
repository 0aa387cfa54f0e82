package iss

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"xtenergy/internal/isa"
	"xtenergy/internal/procgen"
)

// The RAM model: every access is bounded by the architectural size
// (Config.MemBytes), while the simulator materializes only the prefix a
// program has written. These tests pin that the prefix is invisible to
// programs and tools.

func memSim(t *testing.T) *Simulator {
	t.Helper()
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(proc)
}

func movi(rd uint8, v uint32) isa.Instr { return isa.Instr{Op: isa.OpMOVI, Rd: rd, Imm: int32(v)} }

// memOp is a load into rd, or a store of rd, at the address in rs.
func memOp(op isa.Opcode, rd, rs uint8) isa.Instr { return isa.Instr{Op: op, Rd: rd, Rs: rs} }

func runCode(s *Simulator, code ...isa.Instr) (*Result, error) {
	return s.Run(&Program{Name: "mem", Code: code}, Options{})
}

// memFault runs code and returns the memory fault it must raise.
func memFault(t *testing.T, s *Simulator, code ...isa.Instr) *Fault {
	t.Helper()
	_, err := runCode(s, code...)
	f, ok := AsFault(err)
	if !ok || f.Kind != FaultMem {
		t.Fatalf("want a mem-fault, got %v", err)
	}
	return f
}

func TestMemLastWordBelowSize(t *testing.T) {
	s := memSim(t)
	top := uint32(s.memBytes - 4)
	res, err := runCode(s,
		movi(2, top), movi(3, 0xCAFE_F00D),
		memOp(isa.OpS32I, 3, 2), memOp(isa.OpL32I, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[4] != 0xCAFE_F00D {
		t.Fatalf("reloaded %#x from %#x, want 0xcafef00d", res.Regs[4], top)
	}
	if w, err := s.ReadWord(top); err != nil || w != 0xCAFE_F00D {
		t.Fatalf("ReadWord(%#x) = %#x, %v", top, w, err)
	}
	if len(s.mem) != s.memBytes {
		t.Fatalf("prefix is %d bytes after a store to the last word, want all %d", len(s.mem), s.memBytes)
	}
}

func TestMemUntouchedReadsZero(t *testing.T) {
	s := memSim(t)
	res, err := runCode(s,
		movi(2, uint32(s.memBytes-4)), movi(4, 0xFFFF_FFFF),
		memOp(isa.OpL32I, 4, 2), memOp(isa.OpL8UI, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[4] != 0 || res.Regs[5] != 0 {
		t.Fatalf("untouched RAM read %#x / %#x, want 0", res.Regs[4], res.Regs[5])
	}
	if len(s.mem) != 0 {
		t.Fatalf("loads materialized %d bytes; only stores and data segments should", len(s.mem))
	}
}

func TestMemBeyondSizeFaults(t *testing.T) {
	size := uint32(procgen.Default().MemBytes)
	for _, tc := range []struct {
		name string
		addr uint32
		op   isa.Opcode
	}{
		{"load at size", size, isa.OpL32I},
		{"store at size", size, isa.OpS32I},
		{"byte store at size", size, isa.OpS8I},
		{"load at top of address space", 0xFFFF_FFFC, isa.OpL32I},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := memSim(t)
			f := memFault(t, s, movi(2, tc.addr), memOp(tc.op, 3, 2))
			if f.Addr != tc.addr {
				t.Errorf("fault addr = %#x, want %#x", f.Addr, tc.addr)
			}
			if want := fmt.Sprintf("access beyond %d-byte RAM", s.memBytes); f.Msg != want {
				t.Errorf("fault message %q, want %q", f.Msg, want)
			}
			if len(s.mem) != 0 {
				t.Errorf("a faulting access materialized %d bytes", len(s.mem))
			}
		})
	}
}

func TestMemUnalignedPastPrefix(t *testing.T) {
	s := memSim(t)
	addr := uint32(s.memBytes - 2)
	for _, op := range []isa.Opcode{isa.OpL32I, isa.OpS32I} {
		f := memFault(t, s, movi(2, addr), memOp(op, 3, 2))
		if f.Addr != addr || f.Msg != "unaligned 4-byte access" {
			t.Errorf("%s at %#x: fault %#x %q, want the unaligned fault", op.Name(), addr, f.Addr, f.Msg)
		}
	}
}

// TestMemResetClearsPrefix runs a program that writes high RAM and
// then, on the same simulator, one that reads it back: the second run
// must see zero RAM, exactly as on a fresh simulator.
func TestMemResetClearsPrefix(t *testing.T) {
	high := uint32(0x1_0000)
	writer := []isa.Instr{movi(2, high), movi(3, 0xFFFF_FFFF), memOp(isa.OpS32I, 3, 2)}
	reader := []isa.Instr{movi(2, high), movi(3, 0x55), memOp(isa.OpL32I, 3, 2)}

	fresh, err := runCode(memSim(t), reader...)
	if err != nil {
		t.Fatal(err)
	}
	s := memSim(t)
	if _, err := runCode(s, writer...); err != nil {
		t.Fatal(err)
	}
	if int(high) >= len(s.mem) {
		t.Fatalf("writer left a %d-byte prefix; the test needs %#x inside it", len(s.mem), high)
	}
	reused, err := runCode(s, reader...)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Regs[3] != 0 || reused.Regs != fresh.Regs || reused.Stats.Cycles != fresh.Stats.Cycles {
		t.Fatalf("reused simulator read %#x (cycles %d), fresh one %#x (cycles %d)",
			reused.Regs[3], reused.Stats.Cycles, fresh.Regs[3], fresh.Stats.Cycles)
	}
}

func TestMemDataSegmentGrowsPrefix(t *testing.T) {
	s := memSim(t)
	prog := &Program{
		Name: "data",
		Code: []isa.Instr{movi(2, 0x3000), memOp(isa.OpL32I, 3, 2)},
		Data: []Segment{{Addr: 0x3000, Bytes: []byte{1, 2, 3, 4}}},
	}
	res, err := s.Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[3] != 0x0403_0201 {
		t.Fatalf("loaded %#x from the data segment, want 0x04030201", res.Regs[3])
	}
	if len(s.mem) < 0x3004 || len(s.mem)%memPage != 0 {
		t.Fatalf("prefix is %d bytes, want a whole number of pages covering 0x3004", len(s.mem))
	}
}

// TestMemDataSegmentPastSize loads a segment that straddles the end of
// RAM and one that starts past it: the first is cut at the RAM size,
// the second dropped.
func TestMemDataSegmentPastSize(t *testing.T) {
	s := memSim(t)
	top := uint32(s.memBytes - 4)
	prog := &Program{
		Name: "data",
		Code: []isa.Instr{movi(2, top), memOp(isa.OpL32I, 3, 2)},
		Data: []Segment{
			{Addr: top, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Addr: uint32(s.memBytes) + 0x1000, Bytes: []byte{9}},
		},
	}
	res, err := s.Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[3] != 0x0403_0201 {
		t.Fatalf("loaded %#x from the last word, want 0x04030201", res.Regs[3])
	}
}

func TestReadMemAcrossPrefixEdge(t *testing.T) {
	s := memSim(t)
	if _, err := runCode(s, movi(2, 0x1000), movi(3, 0x0403_0201), memOp(isa.OpS32I, 3, 2)); err != nil {
		t.Fatal(err)
	}
	edge := len(s.mem)
	if edge == 0 || edge >= s.memBytes {
		t.Fatalf("prefix is %d bytes; the test needs a partial one", edge)
	}
	if _, err := runCode(s, movi(2, uint32(edge-4)), movi(3, 0x0403_0201), memOp(isa.OpS32I, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if len(s.mem) != edge {
		t.Fatalf("a store inside the prefix grew it from %d to %d bytes", edge, len(s.mem))
	}
	got, err := s.ReadMem(uint32(edge-4), 12)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("ReadMem across the prefix edge = %v, want %v", got, want)
	}
	got, err = s.ReadMem(uint32(edge), s.memBytes-edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != s.memBytes-edge || slices.ContainsFunc(got, func(b byte) bool { return b != 0 }) {
		t.Fatalf("ReadMem past the prefix returned %d bytes, not all zero", len(got))
	}
}

func TestReadMemBadSizes(t *testing.T) {
	s := memSim(t)
	top := uint32(s.memBytes - 1)
	for _, tc := range []struct {
		addr uint32
		sz   int
	}{
		{0x1000, -1},
		{0x1000, math.MinInt},
		{0x1000, s.memBytes},
		{top, 2},
		{top, math.MaxInt},
	} {
		if b, err := s.ReadMem(tc.addr, tc.sz); err == nil {
			t.Errorf("ReadMem(%#x, %d) = %d bytes, want an error", tc.addr, tc.sz, len(b))
		}
	}
	if _, err := s.ReadMem(uint32(s.memBytes), 0); !errors.As(err, new(*Fault)) {
		t.Errorf("ReadMem at the RAM size: %v, want a mem-fault", err)
	}
	if b, err := s.ReadMem(top, 1); err != nil || len(b) != 1 {
		t.Errorf("ReadMem of the last byte = %v, %v", b, err)
	}
}
