package xpowerd

import (
	"context"
	"fmt"
	"sync/atomic"

	"xtenergy/internal/core"
	"xtenergy/internal/engine"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

// This file holds the work-op entry points. The one-shot CLIs render
// through the same functions (cmd/xpower calls EstimateReport, the
// plain-text path of cmd/xlint calls LintReport), so a remote response
// is byte-identical to the one-shot tool's stdout by construction, not
// by parallel maintenance of two formatters.
//
// Every entry point resolves through the content-addressed estimation
// engine (internal/engine): identical requests are answered from the
// memoizing artifact store — and coalesced while in flight — instead of
// re-running the pipeline. Cached and uncached responses are
// byte-identical because the artifact stores the report's inputs and
// rendering is this same shared code.

// engOverride, when set, routes the ops through a specific engine
// instead of the process-wide default (daemon -memo-dir flag, tests).
var engOverride atomic.Pointer[engine.Engine]

// Engine returns the engine serving this process's ops.
func Engine() *engine.Engine {
	if e := engOverride.Load(); e != nil {
		return e
	}
	return engine.Default()
}

// SetEngine routes subsequent ops through e; nil restores the default.
func SetEngine(e *engine.Engine) { engOverride.Store(e) }

// InvalidRequestError marks a request the daemon can never serve —
// unknown workload, missing program, bad lint codes. The session layer
// maps it to ErrCodeInvalid; retrying is pointless.
type InvalidRequestError struct{ Msg string }

func (e *InvalidRequestError) Error() string { return e.Msg }

func invalidf(format string, args ...any) error {
	return &InvalidRequestError{Msg: fmt.Sprintf(format, args...)}
}

// resolveWorkload picks the program: a registry name, or inline XT32
// assembly (base ISA) when allowed, labeled sourceName ("inline" when
// empty — the CLIs pass the file path so findings keep their familiar
// prefix).
func resolveWorkload(name, source, sourceName string, allowSource bool) (core.Workload, error) {
	switch {
	case name != "" && source != "":
		return core.Workload{}, invalidf("workload and source are mutually exclusive")
	case name != "":
		w, ok := workloads.ByName(name)
		if !ok {
			return core.Workload{}, invalidf("unknown workload %q (try -list)", name)
		}
		return w, nil
	case source != "":
		if !allowSource {
			return core.Workload{}, invalidf("this op requires a registry workload, not inline source")
		}
		if sourceName == "" {
			sourceName = "inline"
		}
		return core.Workload{Name: sourceName, Source: source}, nil
	default:
		return core.Workload{}, invalidf("request names no workload")
	}
}

// cancelled wraps a context end into the typed fault taxonomy so wire
// errors carry the same kinds local callers see.
func cancelled(prog, what string, cerr error) error {
	return &iss.Fault{Kind: iss.FaultCancelled, Prog: prog, PC: -1, Msg: what + " cancelled", Err: cerr}
}

// EstimateParams selects one reference power estimation (the xpower
// path: RTL-level streamed estimator over the named workload).
type EstimateParams struct {
	// Workload is the registry workload to estimate.
	Workload string
	// Fast selects the reduced-resolution reference technology.
	Fast bool
	// Deprecated: ignored. Each estimation walks on one goroutine.
	Shards int
	// ProfileWindow, when nonzero, appends the power-vs-time profile
	// with that window in cycles.
	ProfileWindow uint64
	// NoCache bypasses the artifact store: the pipeline always runs,
	// and nothing is read or written (`xpower -no-cache`).
	NoCache bool
}

// EstimateReport runs (or recalls) one streamed reference estimation
// and renders the exact report `xpower [-fast] [-profile]` prints
// for the same inputs. Cancelling ctx aborts at the next batch boundary
// with a typed cancelled fault.
func EstimateReport(ctx context.Context, p EstimateParams) (string, error) {
	w, err := resolveWorkload(p.Workload, "", "", false)
	if err != nil {
		return "", err
	}
	tech := rtlpower.DefaultTechnology()
	if p.Fast {
		tech = rtlpower.FastTechnology()
	}
	a, _, err := Engine().Estimate(ctx, engine.EstimateSpec{
		Workload: w, Config: procgen.Default(), Tech: tech,
		ProfileWindow: p.ProfileWindow, NoCache: p.NoCache,
	})
	if err != nil {
		return "", err
	}
	return a.Render(), nil
}

// SimulateParams selects one ISS run (the xsim path: execution
// statistics, no power estimation).
type SimulateParams struct {
	// Workload is a registry name; Source is inline XT32 assembly
	// (base ISA) labeled SourceName. Exactly one of Workload/Source
	// must be set.
	Workload   string
	Source     string
	SourceName string
	// Vars appends the nonzero macro-model variables. Render-only: the
	// artifact always carries the variables, so -vars and plain runs
	// share one cache entry.
	Vars bool
	// NoCache bypasses the artifact store.
	NoCache bool
}

// SimulateReport runs (or recalls) the ISS and renders the report
// `xsim [-vars]` prints for the same program.
func SimulateReport(ctx context.Context, p SimulateParams) (string, error) {
	w, err := resolveWorkload(p.Workload, p.Source, p.SourceName, true)
	if err != nil {
		return "", err
	}
	a, _, err := Engine().Simulate(ctx, engine.SimulateSpec{
		Workload: w, Config: procgen.Default(), NoCache: p.NoCache,
	})
	if err != nil {
		return "", err
	}
	return a.Render(p.Vars), nil
}

// LintParams selects one static analysis (the xlint plain-text path).
type LintParams struct {
	// Workload is a registry name; Source is inline XT32 assembly
	// (base ISA) labeled SourceName. Exactly one of Workload/Source
	// must be set.
	Workload   string
	Source     string
	SourceName string
	// Notes includes note-severity findings. Render-only: the artifact
	// holds every finding down to note severity.
	Notes bool
	// Disable suppresses the named finding codes (validated; unknown
	// codes are an invalid request, mirroring `xlint -disable`).
	Disable []string
	// NoCache bypasses the artifact store.
	NoCache bool
}

// LintReport runs (or recalls) the static analyzer and renders exactly
// what `xlint [-notes] [-disable]` prints in its default text mode,
// with the same 0/1 status. Invalid disable codes are rejected before
// the engine is consulted, so they can never reach (or pollute) the
// artifact store.
func LintReport(ctx context.Context, p LintParams) (string, int, error) {
	w, err := resolveWorkload(p.Workload, p.Source, p.SourceName, true)
	if err != nil {
		return "", StatusFailed, err
	}
	if len(p.Disable) > 0 {
		if err := xlint.ValidateCodes(p.Disable); err != nil {
			return "", StatusFailed, &InvalidRequestError{Msg: err.Error()}
		}
	}
	a, _, err := Engine().Lint(ctx, engine.LintSpec{
		Workload: w, Config: procgen.Default(), Disable: p.Disable, NoCache: p.NoCache,
	})
	if err != nil {
		return "", StatusFailed, err
	}
	text, degraded := a.Render(p.Notes)
	status := StatusOK
	if degraded {
		status = StatusDegraded
	}
	return text, status, nil
}
