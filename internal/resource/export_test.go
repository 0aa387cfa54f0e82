package resource

import (
	"fmt"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/tie"
)

// FromTrace computes the structural variables by walking the dynamic
// execution trace instruction by instruction, the pass the paper's flow
// describes. The tests hold FromStats, the product path, to it exactly.
func FromTrace(comp *tie.Compiled, trace []iss.TraceEntry) (Vars, error) {
	var out Vars
	if comp == nil {
		return out, fmt.Errorf("resource: nil compiled extension")
	}
	bw := comp.BusTapWeights()
	for i := range trace {
		in := trace[i].Instr
		if in.IsCustom() {
			ci, err := comp.Instruction(in.CustomID)
			if err != nil {
				return out, err
			}
			w, err := comp.CategoryActiveWeights(in.CustomID)
			if err != nil {
				return out, err
			}
			for k := range w {
				out[k] += w[k] * float64(ci.Latency)
			}
			continue
		}
		if isa.ClassOf(in.Op) == isa.ClassArith && len(comp.BusTapped) > 0 {
			for k := range bw {
				out[k] += bw[k]
			}
		}
	}
	return out, nil
}
