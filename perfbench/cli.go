package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"xtenergy/internal/engine"
	"xtenergy/internal/memo"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
)

// cliCounted is the fixed prefix of the invocation sequence whose
// simulated counts are reported.
const cliCounted = 60

// invocation is one finished child process.
type invocation struct {
	wall   time.Duration
	stdout string
	code   int
	rssMB  float64
	err    error
}

// invoke runs one CLI call as a child process against store and waits
// for it. A non-zero exit is a status, not an error.
func (r *run) invoke(ctx context.Context, c cliCall, store, file string) invocation {
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, c.Tool), c.args(file)...)
	cmd.Env = append(envWithout("XTENERGY_MEMO_DIR"), "XTENERGY_MEMO_DIR="+store)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(t), stdout: stdout.String()}
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		inv.code = exit.ExitCode()
	case err != nil:
		inv.err = fmt.Errorf("%s: %w", c.Tool, err)
	}
	if inv.code > 1 {
		inv.err = fmt.Errorf("%s exited %d: %s", c.Tool, inv.code, strings.TrimSpace(stderr.String()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			inv.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	return inv
}

func envWithout(key string) []string {
	var out []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, key+"=") {
			out = append(out, kv)
		}
	}
	return out
}

// warmStore runs every call of the repeat set once against a fresh
// store, so that later repeats are disk-tier hits.
func (r *run) warmStore(ctx context.Context, repeat []cliCall, store string) (time.Duration, error) {
	t := time.Now()
	for _, c := range repeat {
		if inv := r.invoke(ctx, c, store, ""); inv.err != nil {
			return 0, fmt.Errorf("warm-up: %w", inv.err)
		}
	}
	return time.Since(t), nil
}

// cli runs one-shot xpower, xlint and xsim invocations, one child at a
// time, against an on-disk store warmed during set-up, and checks each
// stdout and exit code against the in-process rendering.
func (r *run) cli(ctx context.Context) error {
	names := workloads.Names()
	var firstCall float64
	if r.tr != nil {
		// Before anything else in this process touches an engine.
		firstCall = firstCallMS(ctx, names)
	}
	repeat := cliRepeatSet(r.seed, names)
	var store string
	var setup []time.Duration
	for i := 0; i < setups; i++ {
		store = filepath.Join(r.work, fmt.Sprintf("store%d", i))
		took, err := r.warmStore(ctx, repeat, store)
		if err != nil {
			return err
		}
		setup = append(setup, took)
	}
	r.setupTimes(setup)

	var replay *cliReplay
	if r.tr != nil {
		var err error
		if replay, err = newCLIReplay(ctx, r.work, repeat); err != nil {
			return err
		}
	}
	stream := newCLIStream(r.seed, names)
	reps := newRepeatTracker()
	for _, c := range repeat {
		reps.mark(requestKey(c.request("")))
	}
	var calls []cliCall
	var files []string
	var invs []invocation
	start := time.Now()
	for i := 0; len(invs) == 0 || time.Since(start) < r.seconds; i++ {
		c := stream.next()
		file := ""
		if c.Source != "" {
			file = filepath.Join(r.work, fmt.Sprintf("u%d.s", i))
			if err := os.WriteFile(file, []byte(c.Source), 0o644); err != nil {
				return err
			}
		}
		inv := r.invoke(ctx, c, store, file)
		calls, files, invs = append(calls, c), append(files, file), append(invs, inv)
		reps.add(requestKey(c.request("")))
		if replay != nil {
			if err := replay.step(ctx, r.tr, int64(i), c, file, inv); err != nil {
				return err
			}
		}
	}
	wall := time.Since(start)
	// Peak memory is the largest child among the repeated calls: every
	// run makes each of them many times, while which unique calls a run
	// reaches depends on its speed.
	exp := newExpectations(ctx)
	var walls []time.Duration
	for i, c := range calls {
		inv := invs[i]
		walls = append(walls, inv.wall)
		if !c.Unique {
			r.e2e["peak_rss_mb"] = max(r.e2e["peak_rss_mb"], inv.rssMB)
		}
		err := inv.err
		if err == nil {
			x := exp.render(c.request(files[i]))
			if x.err != nil {
				err = fmt.Errorf("call %d: in-process rendering failed: %w", i, x.err)
			} else {
				err = checkOutput(fmt.Sprintf("call %d (%s)", i, c.Tool), inv.stdout, inv.code, x.out, x.status)
			}
		}
		r.op(err)
	}
	counted := newExpectations(ctx)
	for i, c := range calls[:min(cliCounted, len(calls))] {
		if c.Tool == "xsim" {
			counted.render(c.request(files[i]))
		}
	}
	r.sim = counted.sim
	ms := durationsMS(walls)
	r.samples["calls"] = len(walls)
	r.named["cli_calls_per_s"] = metric{float64(len(walls)) / wall.Seconds(), "1/s"}
	r.named["cli_p50_ms"] = metric{quantile(ms, 0.5), "ms"}
	r.named["cli_p90_ms"] = metric{quantile(ms, 0.9), "ms"}
	r.gen["lag_p99_ms"] = 0 // closed loop: nothing is scheduled
	r.gen["repeat_share"] = reps.share()
	if r.tr != nil {
		r.cliLayers(replay, firstCall, store)
		r.layer["gen.lag_p99_ms"] = 0
		r.layer["gen.repeat_share"] = reps.share()
		r.simLayers(r.sim)
	}
	return nil
}

// firstCallMS is the cost of the first engine call in a fresh process
// beyond the same call repeated: mostly hashing the running binary for
// the digest, once per process. It measures this benchmark's own
// binary, whose size differs from the CLIs'.
func firstCallMS(ctx context.Context, names []string) float64 {
	w, ok := workloads.ByName(names[0])
	if !ok {
		return 0
	}
	call := func() time.Duration {
		eng, err := engine.New(engine.Options{})
		if err != nil {
			return 0
		}
		t := time.Now()
		eng.Simulate(ctx, engine.SimulateSpec{Workload: w, Config: procgen.Default()})
		return time.Since(t)
	}
	first := call()
	var again []time.Duration
	for i := 0; i < 3; i++ {
		again = append(again, call())
	}
	return (float64(first) - quantile(durationsMS(again), 0.5)*1e6) / 1e6
}

// cliReplay replays each invocation in process, as a fresh process
// would serve it: a new engine (empty memory tier) over an on-disk store
// warmed with the repeat set. One store serves the untraced replay and
// one the traced replay, so both see the same hits and misses.
type cliReplay struct {
	dirs      [2]string
	untraced  []decomposed
	traced    []decomposed
	childWall []time.Duration
	unique    []bool
	counters  memo.Counters
}

func newCLIReplay(ctx context.Context, work string, repeat []cliCall) (*cliReplay, error) {
	p := &cliReplay{}
	for k := range p.dirs {
		p.dirs[k] = filepath.Join(work, fmt.Sprintf("inproc%d", k))
		eng, err := engine.New(engine.Options{Dir: p.dirs[k]})
		if err != nil {
			return nil, err
		}
		for _, c := range repeat {
			if _, err := replayRequest(ctx, nil, eng, 0, c.request("")); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func (p *cliReplay) step(ctx context.Context, tr *Tracer, i int64, c cliCall, file string, inv invocation) error {
	q := c.request(file)
	var out [2]decomposed
	for k := range p.dirs {
		eng, err := engine.New(engine.Options{Dir: p.dirs[k]})
		if err != nil {
			return err
		}
		var t *Tracer
		if k == 1 {
			t = tr
		}
		if out[k], err = replayRequest(ctx, t, eng, i, q); err != nil {
			return fmt.Errorf("replay call %d: %w", i, err)
		}
		if k == 1 {
			add(&p.counters, eng.Counters())
		}
	}
	p.untraced = append(p.untraced, out[0])
	p.traced = append(p.traced, out[1])
	p.childWall = append(p.childWall, inv.wall)
	p.unique = append(p.unique, c.Unique)
	return nil
}

func add(dst *memo.Counters, c memo.Counters) {
	dst.Hits += c.Hits
	dst.MemHits += c.MemHits
	dst.DiskHits += c.DiskHits
	dst.Misses += c.Misses
	dst.Coalesced += c.Coalesced
	dst.Evictions += c.Evictions
	dst.Corrupt += c.Corrupt
}

// cliLayers derives the per-layer metrics of the cli replay.
func (r *run) cliLayers(p *cliReplay, firstCall float64, store string) {
	ls := r.tr.byName()
	r.layerCommon(ls)
	var disk, miss, start []float64
	var uw, tw []time.Duration
	for i, x := range p.traced {
		switch x.outcome {
		case memo.OutcomeDiskHit:
			disk = append(disk, float64(x.engWall)/1e3)
		case memo.OutcomeMiss:
			miss = append(miss, float64(x.engWall)/1e6)
		}
		if !p.unique[i] {
			start = append(start, float64(p.childWall[i]-p.untraced[i].opWall)/1e6)
		}
		uw = append(uw, p.untraced[i].wall)
		tw = append(tw, x.wall)
	}
	setIf(r.layer, "engine.disk_hit_us", disk, 0.5)
	setIf(r.layer, "engine.miss_ms", miss, 0.5)
	setIf(r.layer, "cli.start_ms", start, 0.5)
	r.layer["engine.first_call_ms"] = firstCall
	c := p.counters
	if c.Hits+c.Misses > 0 {
		r.layer["memo.hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	r.layer["memo.coalesced"] = float64(c.Coalesced)
	r.layer["memo.evictions"] = float64(c.Evictions)
	r.layer["memo.corrupt"] = float64(c.Corrupt)
	if mb, err := dirMB(store); err == nil {
		r.layer["memo.disk_mb"] = mb
	}
	r.layer["trace.overhead_pct"] = overheadPct(uw, tw)
}
