// Package tie models Tensilica-Instruction-Extension-like custom
// instructions for the XT32 extensible processor.
//
// An Extension is a named set of custom instructions plus shared custom
// state (TIE registers). Each instruction declares its pipeline latency,
// whether it reads/writes the general register file (the source of the
// macro-model's custom-side-effect variable), a datapath built from
// hwlib components (the source of the structural macro-model variables),
// and executable semantics.
//
// The Compile step plays the role of the TIE compiler described in the
// paper (Section II): it validates the specification, assigns opcodes,
// and automatically generates the control logic — TIE instruction
// decoder, bypass logic, interlock detection, immediate generation —
// required to integrate the custom hardware with the base core.
package tie

import (
	"fmt"

	"xtenergy/internal/hwlib"
)

// State is the custom (TIE) architectural state shared by the
// instructions of one extension: a small file of 32-bit custom registers.
type State struct {
	Regs []uint32
}

// NewState allocates TIE state with n custom registers.
func NewState(n int) *State { return &State{Regs: make([]uint32, n)} }

// Reset zeroes all custom registers.
func (s *State) Reset() {
	for i := range s.Regs {
		s.Regs[i] = 0
	}
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{Regs: make([]uint32, len(s.Regs))}
	copy(c.Regs, s.Regs)
	return c
}

// Operands carries a custom instruction's runtime inputs to its
// semantics function.
type Operands struct {
	// RsVal and RtVal are the values read from the general register file
	// (meaningful only when the instruction declares ReadsGeneral).
	RsVal, RtVal uint32
	// Rd, Rs, Rt are the raw instruction fields, available for indexing
	// custom registers.
	Rd, Rs, Rt uint8
	// Imm is reserved for immediate-operand custom instructions.
	Imm int32
}

// SemFunc implements a custom instruction: it may read and update the
// TIE state and returns the value destined for the general register Rd
// (ignored unless the instruction declares WritesGeneral).
type SemFunc func(s *State, op Operands) uint32

// DatapathElem is one hardware component instance in a custom
// instruction's datapath.
type DatapathElem struct {
	hwlib.Component
	// OnBus marks a component whose inputs are latched directly off the
	// base processor's shared operand buses. Such components see spurious
	// switching activity whenever a base arithmetic instruction drives
	// the buses (the paper's Example 1: the base ADD activates custom
	// hardware in its second cycle because the custom hardware and the
	// ALU share the same operand buses).
	OnBus bool
}

// Instruction is the specification of one TIE custom instruction.
type Instruction struct {
	// Name is the assembler mnemonic, unique within the extension
	// (lower case, e.g. "gfmul").
	Name string
	// Latency is the number of execution cycles the instruction occupies
	// ("custom instructions ... can take multiple clock cycles").
	// It must be at least 1.
	Latency int
	// ReadsGeneral reports that Rs/Rt are read from the general register
	// file; WritesGeneral that Rd is written back to it. Either one makes
	// the instruction contribute to the macro-model side-effect variable
	// N_cir (cycles of custom instructions accessing the generic
	// register file).
	ReadsGeneral, WritesGeneral bool
	// ImmOperand selects the immediate form: the third assembler operand
	// is a small signed constant (-32..31) delivered in Operands.Imm
	// instead of a register. The TIE compiler's generated
	// immediate-generation logic decodes it.
	ImmOperand bool
	// Datapath lists the custom hardware the instruction activates while
	// it executes.
	Datapath []DatapathElem
	// Semantics executes the instruction.
	Semantics SemFunc
}

// AccessesGeneralRegfile reports whether the instruction touches the
// general register file at all.
func (in *Instruction) AccessesGeneralRegfile() bool {
	return in.ReadsGeneral || in.WritesGeneral
}

// Validate checks one instruction spec.
func (in *Instruction) Validate() error {
	if in.Name == "" {
		return fmt.Errorf("tie: instruction with empty name")
	}
	if in.Latency < 1 || in.Latency > 64 {
		return fmt.Errorf("tie: instruction %q has latency %d, want 1..64", in.Name, in.Latency)
	}
	if in.Semantics == nil {
		return fmt.Errorf("tie: instruction %q has no semantics", in.Name)
	}
	if len(in.Datapath) == 0 {
		return fmt.Errorf("tie: instruction %q has an empty datapath", in.Name)
	}
	seen := make(map[string]bool, len(in.Datapath))
	for _, e := range in.Datapath {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("tie: instruction %q: %w", in.Name, err)
		}
		if seen[e.Component.Name] {
			return fmt.Errorf("tie: instruction %q has duplicate component %q", in.Name, e.Component.Name)
		}
		seen[e.Component.Name] = true
	}
	return nil
}

// Extension is a named set of custom instructions sharing TIE state.
type Extension struct {
	// Name identifies the extension (e.g. "rs_gfmac").
	Name string
	// NumCustomRegs is the number of 32-bit custom registers the
	// extension's state holds.
	NumCustomRegs int
	// Instructions are the custom instructions, in opcode-assignment
	// order.
	Instructions []*Instruction
	// Tables holds named lookup-table contents addressable by the
	// semantics functions (index parallel to nothing; looked up by name).
	Tables map[string][]uint32
}

// TableValue returns entry i of the named table, with index wrapping so
// that semantics functions cannot fault on synthetic data.
func (e *Extension) TableValue(name string, i uint32) uint32 {
	t := e.Tables[name]
	if len(t) == 0 {
		return 0
	}
	return t[int(i)%len(t)]
}

// Validate checks the whole extension spec.
func (e *Extension) Validate() error {
	if e.Name == "" {
		return fmt.Errorf("tie: extension with empty name")
	}
	if e.NumCustomRegs < 0 || e.NumCustomRegs > 256 {
		return fmt.Errorf("tie: extension %q declares %d custom registers, want 0..256", e.Name, e.NumCustomRegs)
	}
	if len(e.Instructions) == 0 {
		return fmt.Errorf("tie: extension %q has no instructions", e.Name)
	}
	if len(e.Instructions) > 64 {
		return fmt.Errorf("tie: extension %q has %d instructions, max 64", e.Name, len(e.Instructions))
	}
	names := make(map[string]bool, len(e.Instructions))
	for _, in := range e.Instructions {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("tie: extension %q: %w", e.Name, err)
		}
		if names[in.Name] {
			return fmt.Errorf("tie: extension %q has duplicate instruction %q", e.Name, in.Name)
		}
		names[in.Name] = true
	}
	return nil
}
