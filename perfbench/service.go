package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/engine"
	"xtenergy/internal/memo"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

// serviceRequests is the number of timed requests per run: enough for
// a p99 with ten samples beyond it. They arrive over the run's seconds,
// which sets the offered rate.
const serviceRequests = 1050

// serviceSetups is how many daemons a run starts, one after another:
// a start takes tens of milliseconds, so more of them steady the median.
const serviceSetups = 7

// svcResult is one request's outcome in the open loop.
type svcResult struct {
	lag  time.Duration // how late the generator issued it
	sent time.Duration // when a connection picked it up (from window start)
	done time.Duration // when its response arrived (from window start)
	resp *xpowerd.Response
	err  error
}

// daemon is one cmd/xpowerd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

// firstRequest is the fixed request whose answer ends the daemon's
// set-up: what a user waits for from start to a first result, including
// the daemon's one-time binary fingerprint.
var firstRequest = xpowerd.Request{Op: xpowerd.OpEstimate, Workload: "gcd", Fast: true}

// startDaemon starts the daemon on a unix socket with its default pool
// and a fresh artifact store, and returns once it has answered
// firstRequest, with the time that took.
func startDaemon(ctx context.Context, bin, work string, i int) (*daemon, time.Duration, error) {
	sock := filepath.Join(work, fmt.Sprintf("d%d.sock", i))
	memoDir := filepath.Join(work, fmt.Sprintf("memo%d", i))
	d := &daemon{addr: "unix:" + sock}
	d.cmd = exec.Command(filepath.Join(bin, "xpowerd"), "-listen", "", "-unix", sock, "-memo-dir", memoDir, "-quiet")
	d.cmd.Stderr = &d.stderr
	// The daemon must not outlive a benchmark that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start xpowerd: %w", err)
	}
	for {
		if c, err := xpowerd.Dial(d.addr, time.Second); err == nil {
			_, err := c.Do(ctx, &firstRequest)
			c.Close()
			if err == nil {
				return d, time.Since(t), nil
			}
		}
		if time.Since(t) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("xpowerd did not answer within 20s: %s", d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("xpowerd did not drain within 30s")
	}
}

// service drives the daemon binary with open-loop Poisson traffic and
// checks every response against the in-process rendering of the same
// request.
func (r *run) service(ctx context.Context) error {
	if r.tr != nil {
		return r.serviceTraced(ctx)
	}
	names := workloads.Names()
	sched := serviceSchedule(r.seed, names, serviceRequests, r.seconds)
	var d *daemon
	var setup []time.Duration
	for i := 0; i < serviceSetups; i++ {
		var took time.Duration
		var err error
		if d, took, err = startDaemon(ctx, r.bin, r.work, i); err != nil {
			return err
		}
		setup = append(setup, took)
		if i < serviceSetups-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	r.setupTimes(setup)
	conns := runtime.NumCPU()
	warm := warmupRequests(sched)
	if err := closedLoop(ctx, d.addr, conns, warm); err != nil {
		d.stop()
		return fmt.Errorf("warm-up: %w", err)
	}
	// The daemon's peak memory is taken per quarter of the schedule.
	m, err := newMeter(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		d.stop()
		return err
	}
	var meterErr error
	quarter := len(sched) / 4
	results, _, err := openLoop(ctx, d.addr, conns, sched, func(i int) {
		if i > 0 && i%quarter == 0 && i < 4*quarter {
			meterErr = errors.Join(meterErr, m.group())
		}
	})
	if err != nil {
		d.stop()
		return err
	}
	meterErr = errors.Join(meterErr, m.group())
	if h, err := health(ctx, d.addr); err == nil {
		r.notes["daemon_kernel_tier"] = h.Kernel
		r.notes["daemon_health"] = h
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("xpowerd: %w: %s", err, d.stderr.String())
	}
	if meterErr != nil {
		return meterErr
	}
	r.peak(m)

	lat, lags := r.scoreService(sched, results, newExpectations(ctx))
	r.named["svc_p50_ms"] = metric{quantile(durationsMS(lat), 0.5), "ms"}
	r.named["svc_p99_ms"] = metric{quantile(durationsMS(lat), 0.99), "ms"}
	r.gen["lag_p99_ms"] = quantile(durationsMS(lags), 0.99)
	r.gen["repeat_share"] = serviceRepeatShare(warm, sched)
	r.samples["requests"] = len(lat)
	r.samples["warmup"] = len(warm)
	r.notes["offered_rate_per_s"] = float64(len(sched)) / r.seconds.Seconds()
	r.notes["connections"] = conns
	return nil
}

// scoreService checks every response and returns the latencies from
// scheduled send to response, and the generator's lags.
func (r *run) scoreService(sched []svcReq, results []svcResult, exp *expectations) (lat, lags []time.Duration) {
	for i, q := range sched {
		res := results[i]
		lat = append(lat, res.done-q.At)
		lags = append(lags, res.lag)
		r.op(exp.check(fmt.Sprintf("request %d (%s)", i, q.Kind), q.Req, res.resp, res.err))
	}
	r.sim = exp.sim
	return lat, lags
}

func serviceRepeatShare(warm []xpowerd.Request, sched []svcReq) float64 {
	reps := newRepeatTracker()
	for _, q := range warm {
		reps.mark(requestKey(q))
	}
	for _, q := range sched {
		reps.add(requestKey(q.Req))
	}
	return reps.share()
}

func health(ctx context.Context, addr string) (*xpowerd.Health, error) {
	c, err := xpowerd.Dial(addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	resp, err := c.Do(ctx, &xpowerd.Request{Op: xpowerd.OpHealth})
	if err != nil {
		return nil, err
	}
	return resp.Health, nil
}

// closedLoop sends reqs over conns connections, each waiting for its
// reply before the next send.
func closedLoop(ctx context.Context, addr string, conns int, reqs []xpowerd.Request) error {
	jobs := make(chan int, len(reqs)) // every index is queued up front
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := xpowerd.Dial(addr, 5*time.Second)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			for i := range jobs {
				if _, err := cl.Do(ctx, &reqs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// openLoop sends every scheduled request at its time, regardless of
// earlier replies, over conns connections; a request whose connections
// are all busy waits for one, and that wait counts in its latency.
// onSend, if set, observes each request as it is issued.
func openLoop(ctx context.Context, addr string, conns int, sched []svcReq, onSend func(i int)) ([]svcResult, time.Time, error) {
	clients := make([]*xpowerd.Client, conns)
	for c := range clients {
		cl, err := xpowerd.Dial(addr, 5*time.Second)
		if err != nil {
			for _, cl := range clients[:c] {
				cl.Close()
			}
			return nil, time.Time{}, err
		}
		clients[c] = cl
	}
	results := make([]svcResult, len(sched))
	jobs := make(chan int, len(sched)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *xpowerd.Client) {
			defer wg.Done()
			defer cl.Close()
			for i := range jobs {
				res := &results[i]
				res.sent = time.Since(start)
				res.resp, res.err = cl.Do(ctx, &sched[i].Req)
				res.done = time.Since(start)
			}
		}(cl)
	}
	for i, q := range sched {
		if d := q.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		results[i].lag = time.Since(start) - q.At
		if onSend != nil {
			onSend(i)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, start, nil
}

// expectations renders requests in process, through the same entry
// points the daemon and the CLIs use, on the benchmark's memory-only
// engine; identical requests are rendered once.
type expectations struct {
	ctx  context.Context
	seen map[string]expected
	sim  simCounts
}

type expected struct {
	out    string
	status int
	err    error
}

func newExpectations(ctx context.Context) *expectations {
	return &expectations{ctx: ctx, seen: map[string]expected{}}
}

func (e *expectations) render(req xpowerd.Request) expected {
	k := requestKey(req)
	if x, ok := e.seen[k]; ok {
		return x
	}
	var x expected
	switch req.Op {
	case xpowerd.OpEstimate:
		x.out, x.err = xpowerd.EstimateReport(e.ctx, xpowerd.EstimateParams{
			Workload: req.Workload, Fast: req.Fast, Shards: req.Shards, ProfileWindow: req.ProfileWindow,
		})
	case xpowerd.OpSimulate:
		x.out, x.err = xpowerd.SimulateReport(e.ctx, xpowerd.SimulateParams{
			Workload: req.Workload, Source: req.Source, SourceName: req.SourceName, Vars: req.Vars,
		})
		if x.err == nil {
			e.addSim(req)
		}
	case xpowerd.OpLint:
		x.out, x.status, x.err = xpowerd.LintReport(e.ctx, xpowerd.LintParams{
			Workload: req.Workload, Source: req.Source, SourceName: req.SourceName, Notes: req.Notes, Disable: req.Disable,
		})
	default:
		x.err = fmt.Errorf("no in-process rendering for op %q", req.Op)
	}
	e.seen[k] = x
	return x
}

// addSim adds the simulated counts of a distinct simulate request.
func (e *expectations) addSim(req xpowerd.Request) {
	w, ok := core.Workload{Name: req.SourceName, Source: req.Source}, true
	if req.Workload != "" {
		w, ok = workloads.ByName(req.Workload)
	}
	if !ok {
		return
	}
	a, _, err := xpowerd.Engine().Simulate(e.ctx, engine.SimulateSpec{Workload: w, Config: procgen.Default()})
	if err == nil {
		e.sim.add(&a.Stats)
	}
}

// check compares one response with the in-process rendering.
func (e *expectations) check(what string, req xpowerd.Request, resp *xpowerd.Response, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if req.Op == xpowerd.OpHealth {
		if resp.Status != xpowerd.StatusOK || resp.Health == nil || resp.Health.State != "serving" || len(resp.Health.Faults) > 0 {
			return fmt.Errorf("%s: unhealthy daemon (status %d)", what, resp.Status)
		}
		return nil
	}
	x := e.render(req)
	if x.err != nil {
		return fmt.Errorf("%s: in-process rendering failed: %w", what, x.err)
	}
	return checkOutput(what, resp.Output, resp.Status, x.out, x.status)
}

// ---- traced replay ----

// serviceTraced replays the service workload in process. Phase A serves
// the first half of the schedule, open loop, from an in-process
// xpowerd.Server, timestamping worker start through Config.RequestHook.
// Phase B then replays the same requests one at a time through the
// layers the daemon's ops call (registry lookup, engine, render, frame
// codec) on a fresh engine, untraced and then traced.
func (r *run) serviceTraced(ctx context.Context) error {
	names := workloads.Names()
	full := serviceSchedule(r.seed, names, serviceRequests, r.seconds)
	var sched []svcReq
	for _, q := range full {
		if q.At < r.seconds/2 {
			sched = append(sched, q)
		}
	}
	warm := warmupRequests(full)

	// Phase A. The daemon's engine is chosen before anything is timed.
	memoA := filepath.Join(r.work, "memoA")
	engA, err := engine.New(engine.Options{Dir: memoA})
	if err != nil {
		return err
	}
	xpowerd.SetEngine(engA)
	hooks := newHookLog()
	srv := xpowerd.New(xpowerd.Config{UnixPath: filepath.Join(r.work, "a.sock"), RequestHook: hooks.hook})
	t := time.Now()
	if err := srv.Listen(); err != nil {
		return err
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx) }()
	addr := "unix:" + filepath.Join(r.work, "a.sock")
	if err := closedLoop(ctx, addr, 1, []xpowerd.Request{firstRequest}); err != nil {
		stop()
		<-served
		return err
	}
	r.setupTimes([]time.Duration{time.Since(t)})
	conns := runtime.NumCPU()
	if err := closedLoop(ctx, addr, conns, warm); err != nil {
		stop()
		<-served
		return err
	}
	var depthMax int
	var depthMu sync.Mutex
	results, start, err := openLoop(ctx, addr, conns, sched, func(int) {
		h := srv.Health()
		depthMu.Lock()
		depthMax = max(depthMax, h.QueueDepth)
		depthMu.Unlock()
	})
	final := srv.Health()
	stop()
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	// Phase B on its own engine: first untraced, then traced.
	untraced, err := r.decompose(ctx, nil, warm, sched, filepath.Join(r.work, "memoB0"))
	if err != nil {
		return err
	}
	traced, err := r.decompose(ctx, r.tr, warm, sched, filepath.Join(r.work, "memoB1"))
	if err != nil {
		return err
	}

	// Phase A responses must match phase B's independent renderings.
	var lat, lags []time.Duration
	perOp := map[string][]float64{}
	var repeatMS, uniqueMS, overhead, admit []float64
	for i, q := range sched {
		res := results[i]
		lat = append(lat, res.done-q.At)
		lags = append(lags, res.lag)
		err := res.err
		if err == nil && q.Req.Op != xpowerd.OpHealth {
			x := traced[i]
			err = checkOutput(fmt.Sprintf("request %d (%s)", i, q.Kind), res.resp.Output, res.resp.Status, x.out, x.status)
		}
		if err == nil && q.Req.Op == xpowerd.OpHealth && res.resp.Health == nil {
			err = fmt.Errorf("request %d: health answer without a snapshot", i)
		}
		r.op(err)
		ms := float64(res.done-q.At) / 1e6
		perOp[q.Req.Op] = append(perOp[q.Req.Op], ms)
		if q.Req.Op == xpowerd.OpHealth {
			continue
		}
		if q.unique() {
			uniqueMS = append(uniqueMS, ms)
		} else {
			repeatMS = append(repeatMS, ms)
		}
		if w, ok := hooks.match(q.Req, start.Add(res.sent), start.Add(res.done)); ok {
			wait := w.Sub(start.Add(res.sent))
			admit = append(admit, float64(wait)/1e6)
			if !q.unique() {
				// The round trip beyond its wait for a worker and the
				// op itself: codec, socket and session.
				overhead = append(overhead, float64(res.done-res.sent-wait-untraced[i].opWall)/1e3)
			}
		}
	}
	r.named["svc_p50_ms"] = metric{quantile(durationsMS(lat), 0.5), "ms"}
	r.named["svc_p99_ms"] = metric{quantile(durationsMS(lat), 0.99), "ms"}

	ls := r.tr.byName()
	r.layerCommon(ls)
	hit, miss := []float64{}, []float64{}
	for _, x := range traced {
		switch x.outcome {
		case memo.OutcomeMemHit:
			hit = append(hit, float64(x.engWall)/1e3)
		case memo.OutcomeMiss:
			miss = append(miss, float64(x.engWall)/1e6)
		}
	}
	setIf(r.layer, "engine.hit_us", hit, 0.5)
	setIf(r.layer, "engine.miss_ms", miss, 0.5)
	c := engA.Counters()
	if c.Hits+c.Misses > 0 {
		r.layer["memo.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	r.layer["memo.coalesced"] = float64(c.Coalesced)
	r.layer["memo.evictions"] = float64(c.Evictions)
	r.layer["memo.corrupt"] = float64(c.Corrupt)
	if mb, err := dirMB(memoA); err == nil {
		r.layer["memo.disk_mb"] = mb
	}
	setIf(r.layer, "xpowerd.rtt_overhead_us", overhead, 0.5)
	setIf(r.layer, "xpowerd.admit_wait_ms", admit, 0.5)
	r.layer["xpowerd.queue_depth_max"] = float64(depthMax)
	r.layer["xpowerd.shed"] = float64(final.Shed)
	for op, m := range map[string]string{
		xpowerd.OpEstimate: "xpowerd.estimate_p50_ms", xpowerd.OpLint: "xpowerd.lint_p50_ms",
		xpowerd.OpSimulate: "xpowerd.simulate_p50_ms", xpowerd.OpHealth: "xpowerd.health_p50_ms",
	} {
		setIf(r.layer, m, perOp[op], 0.5)
	}
	setIf(r.layer, "xpowerd.repeat_p50_ms", repeatMS, 0.5)
	setIf(r.layer, "xpowerd.unique_p50_ms", uniqueMS, 0.5)
	r.gen["lag_p99_ms"] = quantile(durationsMS(lags), 0.99)
	r.gen["repeat_share"] = serviceRepeatShare(warm, sched)
	r.layer["gen.lag_p99_ms"] = r.gen["lag_p99_ms"]
	r.layer["gen.repeat_share"] = r.gen["repeat_share"]
	var sim simCounts
	for _, x := range traced {
		sim.Instrs += x.sim.Instrs
		sim.Cycles += x.sim.Cycles
		sim.StallCycles += x.sim.StallCycles
		sim.ICacheMisses += x.sim.ICacheMisses
		sim.DCacheMisses += x.sim.DCacheMisses
		sim.Interlocks += x.sim.Interlocks
	}
	r.sim = sim
	r.simLayers(sim)
	var uw, tw []time.Duration
	for i := range traced {
		uw = append(uw, untraced[i].wall)
		tw = append(tw, traced[i].wall)
	}
	r.layer["trace.overhead_pct"] = overheadPct(uw, tw)
	r.notes["daemon_health"] = final
	return nil
}

func setIf(m map[string]float64, name string, xs []float64, q float64) {
	if len(xs) > 0 {
		m[name] = quantile(xs, q)
	}
}

// decomposed is one request replayed layer by layer.
type decomposed struct {
	out     string
	status  int
	outcome memo.Outcome
	engWall time.Duration // the engine call
	opWall  time.Duration // lookup + engine + render: the op's in-process time
	wall    time.Duration // the whole replay, frame codec included
	sim     simCounts
}

// decompose replays warm (untimed) and then sched through the layers the
// daemon's ops call, on a fresh engine over dir.
func (r *run) decompose(ctx context.Context, tr *Tracer, warm []xpowerd.Request, sched []svcReq, dir string) ([]decomposed, error) {
	eng, err := engine.New(engine.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	for _, q := range warm {
		if _, err := replayRequest(ctx, nil, eng, 0, q); err != nil {
			return nil, err
		}
	}
	out := make([]decomposed, len(sched))
	for i, q := range sched {
		x, err := replayRequest(ctx, tr, eng, int64(i), q.Req)
		if err != nil {
			return nil, fmt.Errorf("request %d (%s): %w", i, q.Kind, err)
		}
		out[i] = x
	}
	return out, nil
}

// replayRequest performs one request the way the daemon's op entry
// points do: resolve the workload (by name through the registry), call
// the engine, render; then runs the frame codec over the request and
// its response.
func replayRequest(ctx context.Context, tr *Tracer, eng *engine.Engine, req int64, q xpowerd.Request) (decomposed, error) {
	var x decomposed
	t := time.Now()
	root := tr.Start("request", 0, req)
	defer tr.End(root)
	if q.Op != xpowerd.OpHealth {
		w := core.Workload{Name: q.SourceName, Source: q.Source}
		if w.Name == "" {
			w.Name = "inline"
		}
		if q.Workload != "" {
			s := tr.Start("workloads.ByName", root, req)
			var ok bool
			w, ok = workloads.ByName(q.Workload)
			tr.End(s)
			if !ok {
				return x, fmt.Errorf("unknown workload %q", q.Workload)
			}
		}
		cfg := procgen.Default()
		te := time.Now()
		var err error
		switch q.Op {
		case xpowerd.OpEstimate:
			tech := rtlpower.DefaultTechnology()
			if q.Fast {
				tech = rtlpower.FastTechnology()
			}
			s := tr.Start("engine.Estimate", root, req)
			var a *engine.EstimateArtifact
			a, x.outcome, err = eng.Estimate(ctx, engine.EstimateSpec{Workload: w, Config: cfg, Tech: tech, Shards: q.Shards, ProfileWindow: q.ProfileWindow})
			tr.End(s)
			x.engWall = time.Since(te)
			if err == nil {
				s = tr.Start("engine.Render", root, req)
				x.out = a.Render()
				tr.End(s)
			}
		case xpowerd.OpSimulate:
			s := tr.Start("engine.Simulate", root, req)
			var a *engine.SimulateArtifact
			a, x.outcome, err = eng.Simulate(ctx, engine.SimulateSpec{Workload: w, Config: cfg})
			tr.End(s)
			x.engWall = time.Since(te)
			if err == nil {
				s = tr.Start("engine.Render", root, req)
				x.out = a.Render(q.Vars)
				tr.End(s)
				x.sim.add(&a.Stats)
			}
		case xpowerd.OpLint:
			s := tr.Start("engine.Lint", root, req)
			var a *engine.LintArtifact
			a, x.outcome, err = eng.Lint(ctx, engine.LintSpec{Workload: w, Config: cfg, Disable: q.Disable})
			tr.End(s)
			x.engWall = time.Since(te)
			if err == nil {
				s = tr.Start("engine.Render", root, req)
				var degraded bool
				x.out, degraded = a.Render(q.Notes)
				if degraded {
					x.status = xpowerd.StatusDegraded
				}
				tr.End(s)
			}
		}
		if err != nil {
			return x, err
		}
	}
	x.opWall = time.Since(t)
	s := tr.Start("xpowerd.frame", root, req)
	err := frameRoundTrip(&q, &xpowerd.Response{Status: x.status, Output: x.out})
	tr.End(s)
	x.wall = time.Since(t)
	return x, err
}

// frameRoundTrip encodes and decodes a request and its response with
// the daemon's frame codec, as one round trip does on both ends.
func frameRoundTrip(req *xpowerd.Request, resp *xpowerd.Response) error {
	var buf bytes.Buffer
	for _, v := range []any{req, resp} {
		buf.Reset()
		if err := xpowerd.WriteFrame(&buf, v); err != nil {
			return err
		}
		if _, err := xpowerd.ReadFrame(&buf, xpowerd.DefaultMaxFrame); err != nil {
			return err
		}
	}
	return nil
}

// hookLog records when a worker starts each request (the daemon's
// RequestHook), to measure admission wait.
type hookLog struct {
	mu     sync.Mutex
	events []hookEvent
}

type hookEvent struct {
	at   time.Time
	key  string
	used bool
}

func newHookLog() *hookLog { return &hookLog{} }

func (h *hookLog) hook(req *xpowerd.Request) {
	at := time.Now()
	k := requestKey(*req)
	h.mu.Lock()
	h.events = append(h.events, hookEvent{at: at, key: k})
	h.mu.Unlock()
}

// match returns the worker-start time of the first unclaimed identical
// request that started between sent and done.
func (h *hookLog) match(req xpowerd.Request, sent, done time.Time) (time.Time, bool) {
	k := requestKey(req)
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.events {
		e := &h.events[i]
		if !e.used && e.key == k && !e.at.Before(sent) && !e.at.After(done) {
			e.used = true
			return e.at, true
		}
	}
	return time.Time{}, false
}

// dirMB is the total size of the files under dir in MB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}
