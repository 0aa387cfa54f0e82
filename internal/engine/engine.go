// Package engine is the single front door of the estimation service:
// every CLI and every xpowerd session op builds a canonical request
// here, and the engine resolves it through a two-tier content-addressed
// artifact store (internal/memo) with singleflight coalescing — so the
// fastest simulation is the one that never runs, and a thundering herd
// of identical requests costs exactly one pipeline execution.
//
// Not to be confused with internal/cache, the hardware I/D-cache timing
// model of the simulated processor; this package (with internal/memo)
// memoizes estimation results.
//
// Identity is content-addressed: the SHA-256 digest of the
// canonically-serialized request — op, schema version, a fingerprint of
// the running binary, the workload's source text and full TIE extension
// structure, the processor configuration, and the technology — never a
// filename. Misses fall through to the existing pipelines unchanged;
// results are stored as serialized report *inputs* (see artifact.go),
// so cached and uncached renderings are byte-identical by construction.
// A new binary changes every digest, which is the entire invalidation
// story: stale artifacts are unreachable, not hunted down.
package engine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/memo"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/xlint"
)

// Options configures an Engine.
type Options struct {
	// Dir is the on-disk artifact store root; "" keeps the store
	// memory-only. The memory tier keeps memo's bounds.
	Dir string
}

// Engine resolves canonical requests against the artifact store. A
// miss builds its workload afresh and keeps nothing of the build once
// the artifact is stored, so the store's memory tier is all an engine
// retains between requests.
type Engine struct {
	store *memo.Store

	// onCompute, when set, observes every pipeline execution (cache
	// miss or bypass) by op name. Test seam for the herd assertions.
	onCompute func(op string)
}

// New opens an engine over its artifact store.
func New(o Options) (*Engine, error) {
	st, err := memo.New(memo.Options{Dir: o.Dir})
	if err != nil {
		return nil, err
	}
	return &Engine{store: st}, nil
}

// Counters snapshots the artifact store's accounting (hit / miss /
// coalesce / evict / corrupt) — surfaced by `xpowerd health`.
func (e *Engine) Counters() memo.Counters { return e.store.Counters() }

var defaultEngine struct {
	once sync.Once
	e    *Engine
}

// Default is the process-wide engine every CLI and the daemon share.
// Its disk tier lives at $XTENERGY_MEMO_DIR, or the user cache
// directory (<UserCacheDir>/xtenergy/memo) when unset;
// XTENERGY_MEMO_DIR=off keeps the store memory-only. A directory that
// cannot be created degrades to memory-only rather than failing.
func Default() *Engine {
	defaultEngine.once.Do(func() {
		dir := os.Getenv("XTENERGY_MEMO_DIR")
		switch dir {
		case "off":
			dir = ""
		case "":
			if base, err := os.UserCacheDir(); err == nil {
				dir = filepath.Join(base, "xtenergy", "memo")
			}
		}
		e, err := New(Options{Dir: dir})
		if err != nil {
			e, _ = New(Options{}) // memory-only never fails
		}
		defaultEngine.e = e
	})
	return defaultEngine.e
}

// resolve is the shared request path: canonicalize, digest, and answer
// from the store, coalescing concurrent identical requests; a miss runs
// compute and stores its marshaled artifact. NoCache — and a digest
// that cannot be formed (no binary fingerprint) — bypass the store
// entirely. Hits and misses alike decode from the stored bytes, so both
// paths render from the exact same data.
func resolve[A any](ctx context.Context, e *Engine, op string, req any, noCache bool, compute func(context.Context) (*A, error)) (*A, memo.Outcome, error) {
	run := func() (*A, memo.Outcome, error) {
		if e.onCompute != nil {
			e.onCompute(op)
		}
		a, err := compute(ctx)
		return a, memo.OutcomeBypass, err
	}
	if noCache {
		return run()
	}
	key, err := canonicalKey(op, req)
	if err != nil {
		return run()
	}
	data, out, err := e.store.Do(ctx, memo.DigestBytes(key), func(ctx context.Context) ([]byte, error) {
		if e.onCompute != nil {
			e.onCompute(op)
		}
		a, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(a)
	})
	if err != nil {
		return nil, out, err
	}
	a := new(A)
	if err := json.Unmarshal(data, a); err != nil {
		// The digest's schema+binary fingerprint should make this
		// unreachable; recompute rather than fail on a decode surprise.
		return run()
	}
	return a, out, nil
}

// ---- ops ----

// EstimateSpec is one reference power estimation request.
type EstimateSpec struct {
	Workload core.Workload
	Config   procgen.Config
	Tech     rtlpower.Technology
	// Deprecated: ignored. Each estimation walks on one goroutine.
	Shards        int
	ProfileWindow uint64
	NoCache       bool
}

// Estimate resolves one streamed reference estimation.
func (e *Engine) Estimate(ctx context.Context, spec EstimateSpec) (*EstimateArtifact, memo.Outcome, error) {
	req := estimateReq{
		Workload: workloadRecord(spec.Workload), Config: spec.Config,
		Tech: spec.Tech, ProfileWindow: spec.ProfileWindow,
	}
	return resolve(ctx, e, "estimate", req, spec.NoCache, func(ctx context.Context) (*EstimateArtifact, error) {
		return e.computeEstimate(ctx, spec)
	})
}

func (e *Engine) computeEstimate(ctx context.Context, spec EstimateSpec) (*EstimateArtifact, error) {
	proc, prog, err := spec.Workload.Build(spec.Config)
	if err != nil {
		return nil, err
	}
	est, err := rtlpower.New(proc, spec.Tech)
	if err != nil {
		return nil, err
	}
	st := est.Stream()
	var acc *rtlpower.ProfileAccumulator
	if spec.ProfileWindow > 0 {
		acc = rtlpower.NewProfileAccumulator(spec.ProfileWindow)
		st.OnEntry = acc.OnEntry
	}
	res, err := rtlpower.RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, st)
	if err != nil {
		return nil, err
	}
	rep, err := st.Finish()
	if err != nil {
		return nil, err
	}
	rows, err := rep.Breakdown(proc)
	if err != nil {
		return nil, err
	}
	base, custom, err := rep.BaseCustomSplit(proc)
	if err != nil {
		return nil, err
	}
	a := &EstimateArtifact{
		Workload: spec.Workload.Name, Retired: res.Stats.Retired, Cycles: rep.Cycles,
		ClockMHz: spec.Config.ClockMHz, TotalPJ: rep.TotalPJ, BasePJ: base, CustomPJ: custom,
		Rows: rows,
	}
	if acc != nil {
		a.ProfileWindow = spec.ProfileWindow
		a.Profile = acc.Points()
	}
	return a, nil
}

// SimulateSpec is one ISS run request.
type SimulateSpec struct {
	Workload core.Workload
	Config   procgen.Config
	NoCache  bool
}

// Simulate resolves one ISS run.
func (e *Engine) Simulate(ctx context.Context, spec SimulateSpec) (*SimulateArtifact, memo.Outcome, error) {
	req := simulateReq{Workload: workloadRecord(spec.Workload), Config: spec.Config}
	return resolve(ctx, e, "simulate", req, spec.NoCache, func(ctx context.Context) (*SimulateArtifact, error) {
		return e.computeSimulate(ctx, spec)
	})
}

func (e *Engine) computeSimulate(ctx context.Context, spec SimulateSpec) (*SimulateArtifact, error) {
	proc, prog, err := spec.Workload.Build(spec.Config)
	if err != nil {
		return nil, err
	}
	res, err := iss.New(proc).RunContext(ctx, prog, iss.Options{})
	if err != nil {
		return nil, err
	}
	vars, err := core.Extract(proc.TIE, &res.Stats)
	if err != nil {
		return nil, err
	}
	return &SimulateArtifact{
		Workload: spec.Workload.Name, Instructions: len(prog.Code),
		Stats: res.Stats, Vars: vars,
	}, nil
}

// LintSpec is one static-analysis request. Disable codes must already
// be validated (xlint.ValidateCodes); they are digested sorted, so flag
// order does not split the cache.
type LintSpec struct {
	Workload core.Workload
	Config   procgen.Config
	Disable  []string
	NoCache  bool
}

// Lint resolves one static analysis.
func (e *Engine) Lint(ctx context.Context, spec LintSpec) (*LintArtifact, memo.Outcome, error) {
	req := lintReq{
		Workload: workloadRecord(spec.Workload), Config: spec.Config,
		Disable: sortedCodes(spec.Disable),
	}
	return resolve(ctx, e, "lint", req, spec.NoCache, func(ctx context.Context) (*LintArtifact, error) {
		return e.computeLint(ctx, spec)
	})
}

func (e *Engine) computeLint(ctx context.Context, spec LintSpec) (*LintArtifact, error) {
	// The analyzer is not cancellable; honor ctx at the phase
	// boundaries (both phases are bounded by program size).
	if cerr := ctx.Err(); cerr != nil {
		return nil, &iss.Fault{Kind: iss.FaultCancelled, Prog: spec.Workload.Name, PC: -1, Msg: "lint cancelled", Err: cerr}
	}
	proc, prog, err := spec.Workload.Build(spec.Config)
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, &iss.Fault{Kind: iss.FaultCancelled, Prog: spec.Workload.Name, PC: -1, Msg: "lint cancelled", Err: cerr}
	}
	var opts []xlint.Option
	if len(spec.Disable) > 0 {
		opts = append(opts, xlint.Disable(spec.Disable...))
	}
	rep := xlint.Analyze(prog, proc, opts...)
	return &LintArtifact{
		Prog: prog.Name, Instructions: len(prog.Code), Blocks: len(rep.CFG.Blocks),
		Warnings: rep.Count(xlint.SevWarn), Findings: rep.Filter(xlint.SevNote),
	}, nil
}

// CharacterizeSpec is one full macro-model characterization request.
type CharacterizeSpec struct {
	Config    procgen.Config
	Tech      rtlpower.Technology
	Workloads []core.Workload
	Opts      core.Options
}

// Characterize resolves one characterization — the fitted-model cache.
// Runs that are not deterministic functions of the request (Partial
// degradation, an injected Measure leg) bypass the store and always
// compute.
func (e *Engine) Characterize(ctx context.Context, spec CharacterizeSpec) (*core.CharacterizationResult, memo.Outcome, error) {
	if spec.Opts.Partial || spec.Opts.Measure != nil {
		if e.onCompute != nil {
			e.onCompute("characterize")
		}
		cr, err := core.Characterize(ctx, spec.Config, spec.Tech, spec.Workloads, spec.Opts)
		return cr, memo.OutcomeBypass, err
	}
	req := characterizeReq{Config: spec.Config, Tech: spec.Tech, Regress: spec.Opts.Regress}
	for _, w := range spec.Workloads {
		req.Workloads = append(req.Workloads, workloadRecord(w))
	}
	a, out, err := resolve(ctx, e, "characterize", req, false, func(ctx context.Context) (*charArtifact, error) {
		cr, err := core.Characterize(ctx, spec.Config, spec.Tech, spec.Workloads, spec.Opts)
		if err != nil {
			return nil, err
		}
		return &charArtifact{
			Coef: cr.Model.Coef, CoefStdErr: cr.Model.CoefStdErr, Fit: cr.Model.Fit,
			Observations: cr.Observations, Config: cr.Config, Tech: cr.Tech,
		}, nil
	})
	if err != nil {
		return nil, out, err
	}
	return a.result(), out, nil
}
