package core

import (
	"fmt"

	"xtenergy/internal/asm"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/tie"
)

// Workload is one program to characterize or estimate: XT32 assembly
// source plus (optionally) the TIE extension whose custom instructions
// it uses. Each workload can carry a different extension — the paper's
// characterization generates a custom processor per test program, and
// the fitted macro-model then applies to *any* extension.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Source is the XT32 assembly text.
	Source string
	// Ext is the TIE extension the program's custom mnemonics come from;
	// nil for base-only programs.
	Ext *tie.Extension
	// LintExempt lists xlint finding codes this workload is allowed to
	// trigger, declared where the workload is defined so the exemption
	// travels with it. Stress kernels use it for the dataflow checks
	// their toggling patterns intentionally violate; structural checks
	// can't be exempted this way unless a test opts in.
	LintExempt []string
}

// Build generates the workload's processor instance under cfg and
// assembles its program (the per-test-program "processor generator" leg
// of the characterization flow).
func (w *Workload) Build(cfg procgen.Config) (*procgen.Processor, *iss.Program, error) {
	proc, err := procgen.Generate(cfg, w.Ext)
	if err != nil {
		return nil, nil, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	prog, err := asm.New(proc.TIE).Assemble(w.Name, w.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	return proc, prog, nil
}

// Simulate builds and runs the workload on the ISS, returning the
// processor, the run result, and the extracted macro-model variables.
// collectTrace is ignored: the ISS keeps no trace (stream one through
// iss.Options.TraceSink). The parameter remains because the benchmark
// module compiles against this signature.
func (w *Workload) Simulate(cfg procgen.Config, collectTrace bool) (*procgen.Processor, *iss.Result, Vars, error) {
	proc, prog, err := w.Build(cfg)
	if err != nil {
		return nil, nil, Vars{}, err
	}
	res, err := iss.New(proc).Run(prog, iss.Options{})
	if err != nil {
		return nil, nil, Vars{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	vars, err := Extract(proc.TIE, &res.Stats)
	if err != nil {
		return nil, nil, Vars{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	return proc, res, vars, nil
}
