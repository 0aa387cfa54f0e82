package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xtenergy/internal/asm"
	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/linalg"
	"xtenergy/internal/procgen"
	"xtenergy/internal/regress"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// charPass is one pass of the characterize workload.
type charPass struct {
	char       time.Duration   // one core.Characterize (40 legs + fit)
	refs       []time.Duration // every reference estimation: legs and held-out
	heldRef    time.Duration   // Σ single-stream reference time, held-out 20
	heldMacro  time.Duration   // Σ macro-model time, held-out 20
	heldCycles uint64
	errPct     []float64 // |macro - reference| / reference, held-out 20
	sim        simCounts
}

// characterize runs passes of the paper's characterization: fit the
// macro-model on the 40-program suite, then price the 20 held-out
// programs with the model and with the reference estimator, one at a
// time. With tracing, the first half of the time runs untraced passes
// and the second half traced replays of the same passes.
func (r *run) characterize(ctx context.Context) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	var setup []time.Duration
	for i := 0; i < setups; i++ {
		t := time.Now()
		if _, err := r.charPass(ctx, g, nil, false); err != nil {
			return err
		}
		setup = append(setup, time.Since(t))
	}
	r.setupTimes(setup)

	window := r.seconds
	if r.tr != nil {
		window /= 2
	}
	passes, m, err := r.charPasses(ctx, g, nil, window)
	if err != nil {
		return err
	}
	r.summarizeChar(passes)
	r.peak(m)
	r.gen["lag_p99_ms"] = 0 // closed loop: nothing is scheduled
	r.gen["repeat_share"] = 1
	r.notes["passes"] = len(passes)
	if r.tr == nil {
		return nil
	}
	traced, _, err := r.charPasses(ctx, g, r.tr, window)
	if err != nil {
		return err
	}
	r.charLayers(passes, traced)
	return nil
}

// charPasses runs passes for window and returns them with the process's
// peak memory per pass.
func (r *run) charPasses(ctx context.Context, g *goldens, tr *Tracer, window time.Duration) ([]charPass, *meter, error) {
	m, err := newMeter("self")
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var passes []charPass
	for len(passes) == 0 || time.Since(start) < window {
		p, err := r.charPass(ctx, g, tr, true)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		if err := m.group(); err != nil {
			return nil, nil, err
		}
	}
	return passes, m, nil
}

func (r *run) summarizeChar(passes []charPass) {
	var refs []time.Duration
	var chars, mcps, errs []float64
	for _, p := range passes {
		refs = append(refs, p.refs...)
		chars = append(chars, p.char.Seconds())
		mcps = append(mcps, float64(p.heldCycles)/p.heldRef.Seconds()/1e6)
		errs = append(errs, mean(p.errPct))
	}
	ms := durationsMS(refs)
	r.named["ref_p50_ms"] = metric{quantile(ms, 0.5), "ms"}
	r.named["ref_p90_ms"] = metric{quantile(ms, 0.9), "ms"}
	r.named["char_s"] = metric{quantile(chars, 0.5), "s"}
	r.named["ref_mcycles_per_s"] = metric{quantile(mcps, 0.5), "Mcycles/s"}
	r.named["heldout_err_mean_pct"] = metric{quantile(errs, 0.5), "%"}
	r.samples["passes"] = len(passes)
	r.samples["reference_estimations"] = len(refs)
	r.sim = passes[0].sim
}

// charPass runs one pass and checks it against the goldens. count says
// whether its operations count as attempted (set-up passes are checked
// too, but a failure there aborts the run).
func (r *run) charPass(ctx context.Context, g *goldens, tr *Tracer, count bool) (charPass, error) {
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	var p charPass
	var mu sync.Mutex
	var root spanID
	pass := time.Now().UnixNano()
	measure := func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
		t := time.Now()
		m, err := core.MeasureWorkload(ctx, cfg, tech, w)
		mu.Lock()
		p.refs = append(p.refs, time.Since(t))
		mu.Unlock()
		return m, err
	}
	if tr != nil {
		root = tr.Start("pass", 0, pass)
		defer tr.End(root)
		measure = tracedMeasure(tr, root, pass, &mu, &p.refs)
	}
	t := time.Now()
	cs := tr.Start("core.Characterize", root, pass)
	res, err := core.Characterize(ctx, cfg, tech, workloads.CharacterizationSuite(), core.Options{Measure: measure})
	tr.End(cs)
	p.char = time.Since(t)

	report := func(n int, err error) error {
		if !count {
			return err
		}
		for i := 0; i < n; i++ {
			r.op(err)
		}
		return nil
	}
	if err != nil {
		return p, report(len(workloads.CharacterizationSuite()), fmt.Errorf("characterize: %w", err))
	}
	legErr := checkCoef(res.Model, g)
	for _, o := range res.Observations {
		legErr = errors.Join(legErr, checkLeg(o, g))
	}
	if err := report(len(res.Observations), legErr); err != nil {
		return p, err
	}
	if tr != nil {
		fitSpan(tr, root, pass, res)
	}

	for _, w := range heldoutSuite() {
		var h heldoutRun
		var ref, macro time.Duration
		var err error
		if tr == nil {
			h, ref, macro, err = heldoutTimed(ctx, cfg, tech, w, res.Model)
		} else {
			h, ref, macro, err = tracedHeldout(ctx, tr, root, pass, cfg, tech, w, res.Model)
		}
		if err == nil {
			err = checkHeldout(h, g)
		}
		if err := report(1, err); err != nil {
			return p, err
		}
		p.refs = append(p.refs, ref)
		p.heldRef += ref
		p.heldMacro += macro
		p.heldCycles += h.RefCycles
		if h.RefPJ != 0 {
			d := (h.MacroPJ - h.RefPJ) / h.RefPJ * 100
			if d < 0 {
				d = -d
			}
			p.errPct = append(p.errPct, d)
		}
		p.sim.add(&h.Stats)
	}
	return p, nil
}

// heldoutTimed prices one held-out program with the reference estimator
// and the macro-model, and returns the wall time of each. The fast path
// is core.MacroModel.EstimateWorkload (Workload.Simulate, then
// EstimatePJ), spelled out here to keep the simulated statistics.
func heldoutTimed(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload, m *core.MacroModel) (heldoutRun, time.Duration, time.Duration, error) {
	t := time.Now()
	ref, err := core.ReferenceEnergy(ctx, cfg, tech, w)
	refWall := time.Since(t)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	t = time.Now()
	_, res, vars, err := w.Simulate(cfg, false)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	macro := m.EstimatePJ(vars)
	macroWall := time.Since(t)
	return heldoutRun{
		Name: w.Name, RefPJ: ref.EnergyPJ, RefCycles: ref.Cycles, ConsumedCycle: ref.Report.Cycles,
		MacroPJ: macro, Stats: res.Stats,
	}, refWall, macroWall, nil
}

// ---- traced replay ----

// buildTraced is core.Workload.Build split into its two layer calls.
func buildTraced(tr *Tracer, parent spanID, req int64, cfg procgen.Config, w core.Workload) (*procgen.Processor, *iss.Program, error) {
	s := tr.Start("procgen.Generate", parent, req)
	proc, err := procgen.Generate(cfg, w.Ext)
	tr.End(s)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	s = tr.Start("asm.Assemble", parent, req)
	prog, err := asm.New(proc.TIE).Assemble(w.Name, w.Source)
	tr.End(s)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	s = tr.Start("plan.build", parent, req)
	prog.Plan(proc.TIE)
	tr.End(s)
	return proc, prog, nil
}

// attachPlan makes st price entries from the program's predecoded plan,
// as RunStreamed arranges for a bare *StreamEstimator: a RunStreamed
// call under an already-cancelled context attaches the plan and returns
// its cancelled fault before the first instruction retires, so the
// estimator has consumed nothing. The traced replay then drives st
// through a wrapper (or batch by batch) on the production pricing path.
func attachPlan(proc *procgen.Processor, prog *iss.Program, st *rtlpower.StreamEstimator) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rtlpower.RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, st)
	if f, ok := iss.AsFault(err); ok && f.Kind == iss.FaultCancelled {
		return nil
	}
	return fmt.Errorf("attach plan: expected a cancelled fault, got %v", err)
}

// timedConsumer wraps the stream estimator with a span per Consume.
type timedConsumer struct {
	st     *rtlpower.StreamEstimator
	tr     *Tracer
	parent spanID
	req    int64
}

func (c *timedConsumer) Consume(batch []iss.TraceEntry) error {
	s := c.tr.Start("rtlpower.Consume.streamed", c.parent, c.req)
	defer c.tr.End(s)
	return c.st.Consume(batch)
}

// tracedMeasure is core.MeasureWorkload with a span around each layer
// call; it computes the same measurement.
func tracedMeasure(tr *Tracer, parent spanID, req int64, mu *sync.Mutex, walls *[]time.Duration) core.MeasureFunc {
	return func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w core.Workload) (core.Measurement, error) {
		t := time.Now()
		defer func() {
			mu.Lock()
			*walls = append(*walls, time.Since(t))
			mu.Unlock()
		}()
		leg := tr.Start("core.leg", parent, req)
		defer tr.End(leg)
		proc, prog, err := buildTraced(tr, leg, req, cfg, w)
		if err != nil {
			return core.Measurement{}, err
		}
		s := tr.Start("rtlpower.New", leg, req)
		est, err := rtlpower.New(proc, tech)
		tr.End(s)
		if err != nil {
			return core.Measurement{}, err
		}
		st := est.Stream()
		if err := attachPlan(proc, prog, st); err != nil {
			return core.Measurement{}, err
		}
		rs := tr.Start("rtlpower.RunStreamed", leg, req)
		res, err := rtlpower.RunStreamed(ctx, iss.New(proc), prog, iss.Options{}, &timedConsumer{st: st, tr: tr, parent: rs, req: req})
		tr.End(rs)
		if err != nil {
			return core.Measurement{}, err
		}
		s = tr.Start("rtlpower.Finish", leg, req)
		rep, err := st.Finish()
		tr.End(s)
		if err != nil {
			return core.Measurement{}, err
		}
		if rep.Cycles != res.Stats.Cycles {
			return core.Measurement{}, fmt.Errorf("leg %s: estimator consumed %d cycles, ISS retired %d", w.Name, rep.Cycles, res.Stats.Cycles)
		}
		s = tr.Start("core.Extract", leg, req)
		vars, err := core.Extract(proc.TIE, &res.Stats)
		tr.End(s)
		if err != nil {
			return core.Measurement{}, err
		}
		return core.Measurement{Vars: vars, OpcodeExec: res.Stats.OpcodeExec, MeasuredPJ: rep.TotalPJ, Cycles: res.Stats.Cycles}, nil
	}
}

// fitSpan times the regression alone: the same least-squares fit
// core.Characterize performs, over the pass's observations with the
// identically-zero columns dropped.
func fitSpan(tr *Tracer, parent spanID, req int64, res *core.CharacterizationResult) {
	var used []int
	for j := 0; j < core.NumVars; j++ {
		for _, o := range res.Observations {
			if o.Vars[j] != 0 {
				used = append(used, j)
				break
			}
		}
	}
	x := linalg.NewMatrix(len(res.Observations), len(used))
	y := make([]float64, len(res.Observations))
	for i, o := range res.Observations {
		for jj, j := range used {
			x.Set(i, jj, o.Vars[j])
		}
		y[i] = o.MeasuredPJ
	}
	s := tr.Start("regress.FitLinear", parent, req)
	_, _ = regress.FitLinear(x, y, regress.Options{}) // the pass's own fit already succeeded
	tr.End(s)
}

// tracedHeldout replays one held-out program one layer call at a time:
// the reference path with the ISS feeding the estimator batch by batch
// on one goroutine (so ISS and estimator self times separate), then
// the macro-model path.
func tracedHeldout(ctx context.Context, tr *Tracer, parent spanID, req int64, cfg procgen.Config, tech rtlpower.Technology, w core.Workload, m *core.MacroModel) (heldoutRun, time.Duration, time.Duration, error) {
	t := time.Now()
	root := tr.Start("core.ReferenceEnergy", parent, req)
	proc, prog, err := buildTraced(tr, root, req, cfg, w)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	s := tr.Start("rtlpower.New", root, req)
	est, err := rtlpower.New(proc, tech)
	tr.End(s)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	st := est.Stream()
	if err := attachPlan(proc, prog, st); err != nil {
		return heldoutRun{}, 0, 0, err
	}
	feed := tr.Start("iss.RunFeed", root, req)
	res, err := iss.New(proc).RunContext(ctx, prog, iss.Options{TraceSink: func(b []iss.TraceEntry) error {
		c := tr.Start("rtlpower.Consume", feed, req)
		defer tr.End(c)
		return st.Consume(b)
	}})
	tr.End(feed)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	s = tr.Start("rtlpower.Finish", root, req)
	rep, err := st.Finish()
	if err == nil {
		_, err = rep.Breakdown(proc)
	}
	if err == nil {
		_, _, err = rep.BaseCustomSplit(proc)
	}
	tr.End(s)
	tr.End(root)
	refWall := time.Since(t)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	tr.Count("iss.feed_instrs", float64(res.Stats.Retired))
	tr.Count("rtlpower.consumed_cycles", float64(rep.Cycles))

	t = time.Now()
	macro := tr.Start("macro", parent, req)
	mproc, mprog, err := buildTraced(tr, macro, req, cfg, w)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	s = tr.Start("iss.Run", macro, req)
	mres, err := iss.New(mproc).Run(mprog, iss.Options{})
	tr.End(s)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	tr.Count("iss.run_instrs", float64(mres.Stats.Retired))
	s = tr.Start("core.Extract", macro, req)
	vars, err := core.Extract(mproc.TIE, &mres.Stats)
	tr.End(s)
	if err != nil {
		return heldoutRun{}, 0, 0, err
	}
	s = tr.Start("core.EstimatePJ", macro, req)
	pj := m.EstimatePJ(vars)
	tr.End(s)
	tr.End(macro)
	return heldoutRun{
		Name: w.Name, RefPJ: rep.TotalPJ, RefCycles: res.Stats.Cycles, ConsumedCycle: rep.Cycles,
		MacroPJ: pj, Stats: mres.Stats,
	}, refWall, time.Since(t), nil
}

// charLayers derives the per-layer metrics of the characterize replay.
func (r *run) charLayers(untraced, traced []charPass) {
	ls := r.tr.byName()
	r.layerCommon(ls)
	if s := ls["rtlpower.Consume"]; s != nil {
		r.layer["rtlpower.consume_ns_per_cycle"] = float64(s.total) / r.tr.count("rtlpower.consumed_cycles")
	}
	if s := ls["iss.RunFeed"]; s != nil {
		r.layer["iss.feed_ns_per_instr"] = float64(s.self) / r.tr.count("iss.feed_instrs")
	}
	if c, rs := ls["rtlpower.Consume.streamed"], ls["rtlpower.RunStreamed"]; c != nil && rs != nil {
		r.layer["rtlpower.consumer_busy_ratio"] = float64(c.total) / float64(rs.total)
	}
	if s := ls["regress.FitLinear"]; s != nil {
		r.layer["regress.fit_ms"] = s.medianDur(time.Millisecond)
	}
	if legs, cs := ls["core.leg"], ls["core.Characterize"]; legs != nil && cs != nil {
		var maxLeg time.Duration
		for _, d := range legs.durs {
			maxLeg = max(maxLeg, d)
		}
		r.layer["core.leg_max_ms"] = float64(maxLeg) / 1e6
		r.layer["core.worker_busy_ratio"] = float64(legs.total) / (float64(cs.total) * float64(charParallelism()))
	}
	var sp []float64
	var tChar, uChar []float64
	for _, p := range untraced {
		sp = append(sp, float64(p.heldRef)/float64(p.heldMacro))
		uChar = append(uChar, p.char.Seconds())
	}
	for _, p := range traced {
		tChar = append(tChar, p.char.Seconds())
	}
	r.layer["core.macro_speedup_x"] = quantile(sp, 0.5)
	r.layer["trace.overhead_pct"] = (quantile(tChar, 0.5)/quantile(uChar, 0.5) - 1) * 100
	r.layer["gen.lag_p99_ms"] = 0
	r.layer["gen.repeat_share"] = 1
	r.simLayers(untraced[0].sim)
}
