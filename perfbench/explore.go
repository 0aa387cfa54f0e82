package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
)

// countedCandidates is the fixed prefix of the candidate stream whose
// simulated counts are reported.
const countedCandidates = 120

// explore runs the designer's loop: characterize once, then price and
// bound candidates one after another with the macro-model and the static
// WCEC analysis. The candidates interleave the 60 registry programs
// (rebuilt every time) with seeded random programs.
func (r *run) explore(ctx context.Context) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	var model *core.MacroModel
	var setup []time.Duration
	for i := 0; i < setups; i++ {
		t := time.Now()
		res, err := core.Characterize(ctx, cfg, tech, workloads.CharacterizationSuite(), core.Options{})
		setup = append(setup, time.Since(t))
		if err != nil {
			return fmt.Errorf("characterize: %w", err)
		}
		if err := checkCoef(res.Model, g); err != nil {
			return err
		}
		model = res.Model
	}
	r.setupTimes(setup)
	registry := workloads.All()

	window := r.seconds
	if r.tr != nil {
		window /= 2
	}
	walls, wall, m, reps, sim, err := r.exploreLoop(ctx, nil, g, cfg, registry, model, window)
	if err != nil {
		return err
	}
	r.peak(m)
	ms := durationsMS(walls)
	r.named["explore_cand_per_s"] = metric{float64(len(walls)) / wall.Seconds(), "1/s"}
	r.named["cand_p50_ms"] = metric{quantile(ms, 0.5), "ms"}
	r.named["cand_p99_ms"] = metric{quantile(ms, 0.99), "ms"}
	r.samples["candidates"] = len(walls)
	r.gen["lag_p99_ms"] = 0 // closed loop: nothing is scheduled
	r.gen["repeat_share"] = reps
	r.sim = sim
	if r.tr == nil {
		return nil
	}
	traced, _, _, _, _, err := r.exploreLoop(ctx, r.tr, g, cfg, registry, model, window)
	if err != nil {
		return err
	}
	ls := r.tr.byName()
	r.layerCommon(ls)
	bounded := r.tr.count("xlint.bounded")
	r.layer["xlint.bounded_ratio"] = bounded / r.tr.count("xlint.candidates")
	r.layer["trace.overhead_pct"] = overheadPct(walls, traced)
	r.layer["gen.lag_p99_ms"] = 0
	r.layer["gen.repeat_share"] = reps
	r.simLayers(sim)
	return nil
}

// overheadPct compares the mean wall time of the same operations
// traced and untraced, over the prefix both runs completed.
func overheadPct(untraced, traced []time.Duration) float64 {
	n := min(len(untraced), len(traced))
	var u, t time.Duration
	for i := 0; i < n; i++ {
		u += untraced[i]
		t += traced[i]
	}
	return (float64(t)/float64(u) - 1) * 100
}

// exploreGroup is how many candidates make one peak-memory group.
const exploreGroup = 1000

// exploreLoop prices candidates for window and returns their wall
// times, the window's wall time, the process's peak memory per group of
// candidates, the share that repeated an earlier candidate, and the
// simulated counts of the first countedCandidates.
func (r *run) exploreLoop(ctx context.Context, tr *Tracer, g *goldens, cfg procgen.Config, registry []core.Workload, model *core.MacroModel, window time.Duration) ([]time.Duration, time.Duration, *meter, float64, simCounts, error) {
	stream := newCandStream(r.seed, len(registry))
	reps := newRepeatTracker()
	var sim simCounts
	var walls []time.Duration
	m, err := newMeter("self")
	if err != nil {
		return nil, 0, nil, 0, sim, err
	}
	start := time.Now()
	for i := 0; len(walls) == 0 || time.Since(start) < window; i++ {
		c := stream.next()
		var w core.Workload
		var want *candGolden
		if c.Registry >= 0 {
			w = registry[c.Registry]
			gw, ok := g.Explore[w.Name]
			if !ok {
				r.op(fmt.Errorf("candidate %s: no golden", w.Name))
				continue
			}
			want = &gw
			reps.add(w.Name)
		} else {
			w = core.Workload{Name: fmt.Sprintf("rand%d", c.Rand), Source: randSource(c.Rand)}
			reps.add(w.Source)
		}
		t := time.Now()
		res, err := priceCandidate(tr, 0, int64(i), cfg, w, model)
		walls = append(walls, time.Since(t))
		if err == nil {
			err = checkCandidate(res, want)
		}
		r.op(err)
		if i < countedCandidates {
			sim.add(&res.Stats)
		}
		if len(walls)%exploreGroup == 0 || (len(m.rss) == 0 && time.Since(start) >= window) {
			if err := m.group(); err != nil {
				return nil, 0, nil, 0, sim, err
			}
		}
	}
	return walls, time.Since(start), m, reps.share(), sim, nil
}

// priceCandidate is one step of the exploration loop: build, plan,
// untraced ISS run, variable extraction, macro-model estimate, static
// analysis and WCEC bounds. With a tracer each layer call gets a span.
func priceCandidate(tr *Tracer, parent spanID, req int64, cfg procgen.Config, w core.Workload, model *core.MacroModel) (candResult, error) {
	root := tr.Start("candidate", parent, req)
	defer tr.End(root)
	proc, prog, err := buildTraced(tr, root, req, cfg, w)
	if err != nil {
		return candResult{}, err
	}
	s := tr.Start("iss.Run", root, req)
	res, err := iss.New(proc).Run(prog, iss.Options{})
	tr.End(s)
	if err != nil {
		return candResult{}, fmt.Errorf("candidate %s: %w", w.Name, err)
	}
	tr.Count("iss.run_instrs", float64(res.Stats.Retired))
	s = tr.Start("core.Extract", root, req)
	vars, err := core.Extract(proc.TIE, &res.Stats)
	tr.End(s)
	if err != nil {
		return candResult{}, err
	}
	s = tr.Start("core.EstimatePJ", root, req)
	pj := model.EstimatePJ(vars)
	tr.End(s)
	s = tr.Start("xlint.Analyze", root, req)
	rep := xlint.Analyze(prog, proc)
	tr.End(s)
	s = tr.Start("xlint.ComputeWCEC", root, req)
	wc, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, model)
	tr.End(s)
	out := candResult{Name: w.Name, Stats: res.Stats, MacroPJ: pj, BCEC: math.Inf(-1), WCEC: math.Inf(1)}
	if err == nil {
		out.BCEC, out.WCEC, out.Bounded = wc.BCEC, wc.WCEC, wc.Bounded
	}
	tr.Count("xlint.candidates", 1)
	if out.Bounded {
		tr.Count("xlint.bounded", 1)
	}
	return out, nil
}
