package tie

import (
	"fmt"

	"xtenergy/internal/hwlib"
)

// Compiled is the output of the TIE compiler: the extension with opcodes
// assigned, the flattened custom-hardware component list (including the
// automatically generated control logic), and the per-instruction
// activation map consumed by the resource-usage analyzer and the RTL
// power model.
type Compiled struct {
	// Ext is the validated source extension; nil for a base-only
	// configuration.
	Ext *Extension

	// Components is the flattened list of all custom hardware instances.
	// Generated control blocks (TIE decoder, bypass/interlock logic)
	// come first, followed by each instruction's datapath in order.
	Components []hwlib.Component

	// ActiveByInstr maps a custom instruction ID to the indices (into
	// Components) of the hardware active while it executes.
	ActiveByInstr [][]int

	// BusTapped lists the indices of components latched off the shared
	// operand buses; they are additionally activated for one cycle by
	// every base arithmetic instruction (the paper's base-to-custom
	// side effect).
	BusTapped []int

	// ControlIdx lists the indices of the generated control blocks; they
	// are active for every cycle of every custom instruction.
	ControlIdx []int

	byName map[string]uint8
}

// Compile runs the TIE compiler on ext. A nil extension compiles to a
// base-only configuration with no custom hardware.
//
// Mirroring the paper's description of the TIE flow, the compiler
// automatically generates the control logic required by the custom
// instructions — the TIE instruction decoder, bypass logic and interlock
// detection — as logic/reduction/mux category components whose size
// scales with the number of custom instructions, plus the custom
// register file declared by the extension.
func Compile(ext *Extension) (*Compiled, error) {
	if ext == nil {
		return &Compiled{byName: map[string]uint8{}}, nil
	}
	if err := ext.Validate(); err != nil {
		return nil, err
	}

	c := &Compiled{Ext: ext, byName: make(map[string]uint8, len(ext.Instructions))}

	// Generated control logic. Widths scale with instruction count so
	// that richer extensions pay more control overhead.
	n := len(ext.Instructions)
	decoder := hwlib.Component{Name: "tie_decoder", Cat: hwlib.LogicRedMux, Width: clampWidth(8 + 2*n)}
	bypass := hwlib.Component{Name: "tie_bypass", Cat: hwlib.LogicRedMux, Width: clampWidth(16 + n)}
	interlock := hwlib.Component{Name: "tie_interlock", Cat: hwlib.LogicRedMux, Width: clampWidth(8 + n)}
	c.Components = append(c.Components, decoder, bypass, interlock)
	c.ControlIdx = []int{0, 1, 2}

	if ext.NumCustomRegs > 0 {
		// The custom register file is shared state; it is active on every
		// custom instruction cycle (read/write/bypass paths).
		crf := hwlib.Component{
			Name:  "tie_regfile",
			Cat:   hwlib.CustomRegister,
			Width: clampWidth(ext.NumCustomRegs * 32 / 8), // scaled footprint
		}
		c.Components = append(c.Components, crf)
		c.ControlIdx = append(c.ControlIdx, len(c.Components)-1)
	}

	seen := make(map[string]int) // component name -> global index (sharing)
	for id, in := range ext.Instructions {
		if _, dup := c.byName[in.Name]; dup {
			return nil, fmt.Errorf("tie: duplicate instruction name %q", in.Name)
		}
		c.byName[in.Name] = uint8(id)

		var active []int
		active = append(active, c.ControlIdx...)
		for _, e := range in.Datapath {
			idx, ok := seen[e.Component.Name]
			if !ok {
				idx = len(c.Components)
				c.Components = append(c.Components, e.Component)
				seen[e.Component.Name] = idx
				if e.OnBus {
					c.BusTapped = append(c.BusTapped, idx)
				}
			} else if c.Components[idx] != e.Component {
				return nil, fmt.Errorf("tie: component %q redefined with different parameters", e.Component.Name)
			}
			active = append(active, idx)
		}
		c.ActiveByInstr = append(c.ActiveByInstr, active)
	}
	return c, nil
}

func clampWidth(w int) int {
	if w < 1 {
		return 1
	}
	if w > 128 {
		return 128
	}
	return w
}

// NumInstructions returns the number of custom instructions.
func (c *Compiled) NumInstructions() int {
	if c.Ext == nil {
		return 0
	}
	return len(c.Ext.Instructions)
}

// Instruction returns the spec of custom instruction id.
func (c *Compiled) Instruction(id uint8) (*Instruction, error) {
	if c.Ext == nil || int(id) >= len(c.Ext.Instructions) {
		return nil, fmt.Errorf("tie: no custom instruction with id %d", id)
	}
	return c.Ext.Instructions[id], nil
}

// CategoryActiveWeights returns, for instruction id, the summed
// complexity f(C) per hardware category of the components active during
// one of its cycles. This is the per-cycle contribution of the
// instruction to the ten structural macro-model variables.
func (c *Compiled) CategoryActiveWeights(id uint8) ([hwlib.NumCategories]float64, error) {
	var w [hwlib.NumCategories]float64
	if c.Ext == nil || int(id) >= len(c.ActiveByInstr) {
		return w, fmt.Errorf("tie: no custom instruction with id %d", id)
	}
	for _, idx := range c.ActiveByInstr[id] {
		comp := c.Components[idx]
		w[comp.Cat] += comp.Complexity()
	}
	return w, nil
}

// BusTapWeights returns the summed complexity per category of the
// bus-tapped components (activated by base arithmetic instructions).
func (c *Compiled) BusTapWeights() [hwlib.NumCategories]float64 {
	var w [hwlib.NumCategories]float64
	for _, idx := range c.BusTapped {
		comp := c.Components[idx]
		w[comp.Cat] += comp.Complexity()
	}
	return w
}
