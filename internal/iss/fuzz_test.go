package iss_test

import (
	"bytes"
	"testing"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// FuzzSimulatorNeverPanics feeds raw instruction fields to the
// simulator and requires the taxonomy's contract: every run either
// halts cleanly or returns a typed *iss.Fault — the simulator must never
// panic and never return an untyped runtime error, no matter the program.
func FuzzSimulatorNeverPanics(f *testing.F) {
	proc, err := procgen.Generate(procgen.Default(), nil)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: all-zero and all-ones fields, a sub-instruction tail, and
	// raw junk.
	f.Add(make([]byte, instrBytes))
	f.Add(bytes.Repeat([]byte{0xFF}, instrBytes))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte("\xde\xad\xbe\xef\x0b\xad\xf0\x0d\x12\x34\x56\x78\x87\x65\x43\x21"))

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxWords = 256
		var code []isa.Instr
		for i := 0; i+instrBytes <= len(data) && len(code) < maxWords; i += instrBytes {
			in := fuzzInstr(data[i : i+instrBytes])
			if _, ok := isa.Lookup(in.Op); !ok {
				continue // no such opcode: not an executable program
			}
			code = append(code, in)
		}
		if len(code) == 0 {
			return
		}
		prog := &iss.Program{Name: "fuzz", Code: code}
		if err := prog.Validate(); err != nil {
			return // malformed image: rejected pre-flight, by design
		}
		_, err := iss.New(proc).Run(prog, iss.Options{MaxCycles: 100_000})
		if err == nil {
			return
		}
		if _, ok := iss.AsFault(err); !ok {
			t.Fatalf("untyped runtime error: %v", err)
		}
	})
}

// instrBytes is the fuzz input consumed per instruction.
const instrBytes = 8

// fuzzInstr maps b field by field: the opcode byte, then rd, rs, rt
// and the custom ID (each a register-file index or 6-bit constant),
// then a signed 24-bit immediate, wide enough for every format's.
func fuzzInstr(b []byte) isa.Instr {
	return isa.Instr{
		Op:       isa.Opcode(b[0]),
		Rd:       b[1] % isa.NumRegs,
		Rs:       b[2] % isa.NumRegs,
		Rt:       b[3] % isa.NumRegs,
		CustomID: b[4] % isa.NumRegs,
		Imm:      int32(uint32(b[5])<<8|uint32(b[6])<<16|uint32(b[7])<<24) >> 8,
	}
}
