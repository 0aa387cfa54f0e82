// Package iss is the XT32 instruction-set simulator.
//
// It plays the role of the Xtensa SDK's instruction set simulator in the
// paper's flow (Fig. 2, steps 6 and 9): it executes a program — base
// instructions plus any TIE custom instructions — functionally, with a
// cycle-approximate timing model (five-stage pipeline interlocks, taken/
// untaken branch costs, 4-way set-associative I/D caches, uncached
// fetches), and gathers exactly the execution statistics the energy
// macro-model consumes. It can also record a dynamic execution trace for
// the RTL-level reference power estimator and for dynamic resource-usage
// analysis.
package iss

import (
	"fmt"
	"sync"

	"xtenergy/internal/isa"
	"xtenergy/internal/plan"
	"xtenergy/internal/tie"
)

// Segment is an initialized data region of a program image.
type Segment struct {
	// Addr is the start byte address within cacheable RAM.
	Addr uint32
	// Bytes is the initial content.
	Bytes []byte
}

// Program is an executable program image: code, initialized data, and
// layout metadata. Instruction i resides at byte address 4*i.
type Program struct {
	// Name labels the program in reports.
	Name string
	// Code is the instruction stream.
	Code []isa.Instr
	// Data lists initialized data segments.
	Data []Segment
	// Entry is the word index where execution starts.
	Entry int
	// Uncached flags instructions that reside in the uncached region
	// (fetches bypass the I-cache and count as uncached instruction
	// fetches). Nil means fully cached; otherwise it must have the same
	// length as Code.
	Uncached []bool
	// Labels maps code labels to their instruction index (populated by
	// the assembler; used for region-level energy profiling).
	Labels map[string]int
	// Lines maps each instruction index to its 1-based source line
	// (populated by the assembler; used by diagnostics such as xlint).
	// Nil means no source information; otherwise it must have the same
	// length as Code.
	Lines []int

	// Cached predecoded plan (see Plan). Guarded by planMu; keyed by the
	// compiled extension it was resolved against.
	planMu   sync.Mutex
	planComp *tie.Compiled
	plan     *plan.Plan
}

// Plan returns the program's predecoded instruction plan resolved
// against comp, building it on first use and caching it afterwards. The
// returned plan is immutable, so one build amortizes across every
// consumer of the same program/extension pair — repeated simulator runs,
// the parallel characterization workers, xlint, and the reference
// estimator all share it. A different comp (or nil) rebuilds.
//
// Callers must not mutate Code or Uncached after the first Plan call:
// the cached records would go stale.
func (p *Program) Plan(comp *tie.Compiled) *plan.Plan {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.plan == nil || p.planComp != comp {
		p.plan = plan.Build(p.Code, p.Uncached, comp)
		p.planComp = comp
	}
	return p.plan
}

// Line returns the 1-based source line of instruction index i, or 0 when
// no source information is available.
func (p *Program) Line(i int) int {
	if p.Lines == nil || i < 0 || i >= len(p.Lines) {
		return 0
	}
	return p.Lines[i]
}

// Validate checks structural invariants of the program image.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("iss: program %q has no code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("iss: program %q entry %d out of range [0,%d)", p.Name, p.Entry, len(p.Code))
	}
	if p.Uncached != nil && len(p.Uncached) != len(p.Code) {
		return fmt.Errorf("iss: program %q has %d uncached flags for %d instructions", p.Name, len(p.Uncached), len(p.Code))
	}
	if p.Lines != nil && len(p.Lines) != len(p.Code) {
		return fmt.Errorf("iss: program %q has %d source lines for %d instructions", p.Name, len(p.Lines), len(p.Code))
	}
	for i, in := range p.Code {
		if _, ok := isa.Lookup(in.Op); !ok {
			return fmt.Errorf("iss: program %q instruction %d has invalid opcode", p.Name, i)
		}
	}
	return nil
}
