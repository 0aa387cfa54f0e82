// Package xlint is a static analyzer for assembled XT32+TIE programs:
// the simulation-free counterpart of the instruction-set simulator. It
// builds a basic-block control-flow graph, runs forward def-use dataflow
// to flag uninitialized register reads, dead writes and unreachable
// blocks, detects statically guaranteed pipeline interlock pairs, and
// validates custom-instruction operands against the compiled TIE
// extension. On the same CFG it computes static per-invocation energy
// bounds — per-block intervals of the 21 macro-model variables that,
// combined with a fitted core.MacroModel, bracket the energy of any
// execution without running the ISS (in the spirit of static energy
// complexity analysis; bounds, not point estimates, because energy is
// input dependent).
package xlint

import (
	"fmt"
	"sort"
	"strings"

	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
)

// Severity ranks a finding.
type Severity uint8

const (
	// SevNote is informational (e.g. a guaranteed interlock pair: correct
	// code, but each execution pays a stall cycle).
	SevNote Severity = iota
	// SevWarn is suspicious but not certainly fatal (maybe-uninitialized
	// read, dead write, unreachable block).
	SevWarn
	// SevError means the program faults, panics, or reads garbage on
	// every path that reaches the instruction.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevNote:
		return "note"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return "severity(?)"
}

// Finding is one diagnostic.
type Finding struct {
	// Code is the stable machine-readable finding class, e.g.
	// "uninit-read", "dead-write", "unreachable", "interlock",
	// "reg-range", "tie-undefined", "tie-operand", "loop-option",
	// "mul-option", "invalid-target".
	Code string
	Sev  Severity
	// PC is the instruction index the finding anchors to.
	PC int
	// Line is the 1-based source line (0 when the program carries no
	// source information).
	Line int
	// Reg is the register the finding concerns, or -1.
	Reg int
	Msg string
}

// String formats a finding as "prog:line: severity: [code] msg".
func (f Finding) String() string {
	pos := fmt.Sprintf("pc %d", f.PC)
	if f.Line > 0 {
		pos = fmt.Sprintf("line %d (pc %d)", f.Line, f.PC)
	}
	return fmt.Sprintf("%s: %s: [%s] %s", pos, f.Sev, f.Code, f.Msg)
}

// Report is the outcome of analyzing one program.
type Report struct {
	Prog     *iss.Program
	CFG      *CFG
	Findings []Finding
	// Abs is the converged abstract-interpretation result the value
	// analysis ran on — kept so downstream consumers (trip counts, WCEC,
	// soundness oracles) reuse the fixpoint instead of recomputing it.
	Abs *AbsResult

	disabled map[string]bool
}

// knownCodes enumerates every finding code any analysis can emit, in
// documentation order. New analyses must register their codes here:
// Disable validation (cmd/xlint -disable) rejects anything else.
var knownCodes = []string{
	"uninit-read", "dead-write", "unreachable", "interlock",
	"reg-range", "tie-undefined", "tie-operand", "loop-option",
	"mul-option", "invalid-target",
	"absint-dead-edge", "absint-zero-trip", "absint-loop-forever",
	"absint-mem-range",
}

// ValidateCodes rejects finding codes the analyzer does not emit — the
// guard behind cmd/xlint -disable, so a typo suppresses nothing
// silently.
func ValidateCodes(codes []string) error {
	known := make(map[string]bool, len(knownCodes))
	for _, c := range knownCodes {
		known[c] = true
	}
	for _, c := range codes {
		if !known[c] {
			return fmt.Errorf("unknown finding code %q (valid: %s)", c, strings.Join(knownCodes, ", "))
		}
	}
	return nil
}

// Option configures one Analyze run.
type Option func(*Report)

// Disable suppresses the given finding codes. Characterization stress
// kernels disable "dead-write" and "uninit-read": they intentionally
// write ALU-toggling results nobody reads and read reset-zero scratch
// registers — defined behavior on this core, noise for this corpus.
func Disable(codes ...string) Option {
	return func(r *Report) {
		if r.disabled == nil {
			r.disabled = make(map[string]bool, len(codes))
		}
		for _, c := range codes {
			r.disabled[c] = true
		}
	}
}

// Count returns the number of findings at or above sev.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Sev >= sev {
			n++
		}
	}
	return n
}

// Filter returns the findings at or above sev.
func (r *Report) Filter(sev Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sev >= sev {
			out = append(out, f)
		}
	}
	return out
}

// Err summarizes error-severity findings as a single error, or nil.
func (r *Report) Err() error {
	errs := r.Filter(SevError)
	if len(errs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "xlint: %s: %d error(s):", r.Prog.Name, len(errs))
	for _, f := range errs {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) add(code string, sev Severity, pc, reg int, format string, args ...any) {
	if r.disabled[code] {
		return
	}
	r.Findings = append(r.Findings, Finding{
		Code: code,
		Sev:  sev,
		PC:   pc,
		Line: r.Prog.Line(pc),
		Reg:  reg,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyze runs every static check over prog as it would execute on proc
// and returns the collected findings, ordered by instruction index.
func Analyze(prog *iss.Program, proc *procgen.Processor, opts ...Option) *Report {
	r := &Report{Prog: prog, CFG: BuildCFG(prog, proc.TIE)}
	for _, o := range opts {
		o(r)
	}
	checkInstructions(r, proc)
	analyzeInit(r, proc)
	analyzeDeadWrites(r, proc)
	analyzeUnreachable(r)
	analyzeInterlocks(r, proc)
	analyzeValues(r, proc)
	sort.SliceStable(r.Findings, func(i, j int) bool {
		return r.Findings[i].PC < r.Findings[j].PC
	})
	return r
}
