// Package resource implements dynamic resource-usage analysis (step 10
// of the paper's flow): it maps a program's execution onto activation
// counts of the custom hardware, producing the ten structural
// macro-model variables.
//
// Each structural variable is Σ_j f(C_j)·ActiveCycles_j over the custom
// hardware components of one library category, where f(C) is the
// bit-width complexity from hwlib. Activations come from two sources:
// custom instructions activate their datapath (plus the generated TIE
// control logic) for their full latency, and base arithmetic
// instructions activate the bus-tapped custom components for one cycle
// (the base-to-custom side effect of the paper's Example 1).
package resource

import (
	"fmt"

	"xtenergy/internal/hwlib"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/tie"
)

// Vars is the vector of the ten structural macro-model variables, in
// hwlib category order.
type Vars [hwlib.NumCategories]float64

// FromStats computes the structural variables from compact execution
// statistics. This is the fast path used during application energy
// estimation: no trace is needed, only per-custom-instruction execution
// counts and per-opcode counts.
func FromStats(comp *tie.Compiled, st *iss.Stats) (Vars, error) {
	var out Vars
	if comp == nil {
		return out, fmt.Errorf("resource: nil compiled extension")
	}
	for id := 0; id < comp.NumInstructions(); id++ {
		cnt := st.CustomExecCount(id)
		if cnt == 0 {
			continue
		}
		ci, err := comp.Instruction(uint8(id))
		if err != nil {
			return out, err
		}
		w, err := comp.CategoryActiveWeights(uint8(id))
		if err != nil {
			return out, err
		}
		cycles := float64(cnt) * float64(ci.Latency)
		for k := range w {
			out[k] += float64(w[k] * cycles)
		}
	}
	if len(comp.BusTapped) > 0 {
		bw := comp.BusTapWeights()
		arith := arithInstrCount(st)
		for k := range bw {
			out[k] += float64(bw[k] * float64(arith))
		}
	}
	return out, nil
}

// arithInstrCount counts retired arithmetic-class instructions.
func arithInstrCount(st *iss.Stats) uint64 {
	var n uint64
	for _, op := range isa.BaseOpcodes() {
		if isa.ClassOf(op) == isa.ClassArith {
			n += st.OpcodeExec[op]
		}
	}
	return n
}
