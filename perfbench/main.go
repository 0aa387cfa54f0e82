// Command perfbench is the repository benchmark. It runs one workload
// for a fixed number of seconds, checks every output it produces against
// an independent expectation, and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.sh,
// which builds the binaries first):
//
//	perfbench -bin <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: characterize, explore, service, cli (see README.md). With
// --trace 0 the last line carries the end-to-end metrics; with --trace 1
// the workload is replayed in process with spans around every layer
// call and the last line carries the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"xtenergy/internal/engine"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/xpowerd"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, and perLayer the per-layer metrics of the traced run.
// Both must match BENCHMARK.json. The workloads' own timings are in the
// record line (see README.md for why they are not gated).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"workloads.lookup_ms", "ms"},
	{"procgen.generate_us", "us"},
	{"asm.assemble_us", "us"},
	{"plan.build_us", "us"},
	{"iss.ns_per_instr", "ns"},
	{"iss.feed_ns_per_instr", "ns"},
	{"iss.instrs", "count"},
	{"iss.cycles", "count"},
	{"iss.stall_cycles", "count"},
	{"cache.icache_misses", "count"},
	{"cache.dcache_misses", "count"},
	{"pipeline.interlocks", "count"},
	{"core.extract_us", "us"},
	{"core.leg_max_ms", "ms"},
	{"core.worker_busy_ratio", "ratio"},
	{"regress.fit_ms", "ms"},
	{"core.macro_speedup_x", "x"},
	{"rtlpower.new_us", "us"},
	{"rtlpower.consume_ns_per_cycle", "ns"},
	{"rtlpower.consumer_busy_ratio", "ratio"},
	{"rtlpower.finish_us", "us"},
	{"xlint.analyze_us", "us"},
	{"xlint.wcec_us", "us"},
	{"xlint.bounded_ratio", "ratio"},
	{"engine.hit_us", "us"},
	{"engine.disk_hit_us", "us"},
	{"engine.miss_ms", "ms"},
	{"engine.render_us", "us"},
	{"engine.first_call_ms", "ms"},
	{"memo.hit_ratio", "ratio"},
	{"memo.coalesced", "count"},
	{"memo.evictions", "count"},
	{"memo.corrupt", "count"},
	{"memo.disk_mb", "MB"},
	{"xpowerd.frame_us", "us"},
	{"xpowerd.rtt_overhead_us", "us"},
	{"xpowerd.admit_wait_ms", "ms"},
	{"xpowerd.queue_depth_max", "count"},
	{"xpowerd.shed", "count"},
	{"xpowerd.estimate_p50_ms", "ms"},
	{"xpowerd.lint_p50_ms", "ms"},
	{"xpowerd.simulate_p50_ms", "ms"},
	{"xpowerd.health_p50_ms", "ms"},
	{"xpowerd.repeat_p50_ms", "ms"},
	{"xpowerd.unique_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.repeat_share", "ratio"},
	{"cli.start_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// setups is how many times each workload repeats its set-up; setup_s
// is their median.
const setups = 3

// run is one workload run's shared state and accounting.
type run struct {
	seed    int64
	seconds time.Duration
	bin     string  // directory holding the built binaries
	work    string  // per-run scratch directory, relative to the checkout
	tr      *Tracer // nil for the untraced run

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	e2e     map[string]float64 // gated end-to-end metrics
	named   map[string]metric  // the workload's own timings
	layer   map[string]float64 // per-layer metrics
	samples map[string]int     // sample count behind each timing
	gen     map[string]float64 // generator statistics
	sim     simCounts
	notes   map[string]any // extra record fields
}

// op records one attempted operation; err (a failed call or a failed
// correctness check) makes it a failed one.
func (r *run) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) setupTimes(ts []time.Duration) {
	r.e2e["setup_s"] = quantile(durationsSec(ts), 0.5)
	r.samples["setup"] = len(ts)
}

func main() {
	code, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr() (int, error) {
	workload := flag.String("workload", "", "workload to run: characterize, explore, service or cli")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 replays the workload in process with per-layer spans")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built xpowerd, xpower, xlint and xsim binaries")
	record := flag.String("record-goldens", "", "write the correctness goldens of the current code to this file and exit")
	flag.Parse()

	ctx := context.Background()
	if *record != "" {
		return 0, recordGoldens(ctx, *record)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	// In-process renderings of service and cli requests (the expected
	// outputs) go through a memory-only engine of their own, so they
	// never read or write the on-disk store. This is set once, before
	// anything is measured.
	eng, err := engine.New(engine.Options{})
	if err != nil {
		return 2, err
	}
	xpowerd.SetEngine(eng)

	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(work)

	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: work,
		e2e: map[string]float64{}, named: map[string]metric{}, layer: map[string]float64{},
		samples: map[string]int{}, gen: map[string]float64{}, notes: map[string]any{},
	}
	if *trace == 1 {
		r.tr = NewTracer()
	}
	steal0, _ := readCPUStat()
	var runErr error
	switch *workload {
	case "characterize":
		runErr = r.characterize(ctx)
	case "explore":
		runErr = r.explore(ctx)
	case "service":
		runErr = r.service(ctx)
	case "cli":
		runErr = r.cli(ctx)
	default:
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if runErr != nil {
		return 1, runErr
	}
	if steal1, err := readCPUStat(); err == nil {
		r.notes["host_steal_pct"] = steal1.stealPct(steal0)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", *workload, *seed))
		if err := r.tr.WriteFile(path); err != nil {
			return 1, err
		}
		r.notes["trace_file"] = path
	}
	return r.emit(*workload)
}

// emit prints the full record line, then the result line.
func (r *run) emit(workload string) (int, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	if r.tr == nil {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok {
				missing = append(missing, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		var idle []string
		for _, m := range perLayer {
			v, ok := r.layer[m.name]
			if !ok {
				idle = append(idle, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		r.notes["not_exercised"] = idle
	}
	if len(missing) > 0 {
		return 1, fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	gen := map[string]metric{}
	for k, v := range r.gen {
		unit := "ratio"
		if strings.HasSuffix(k, "_ms") {
			unit = "ms"
		}
		gen["gen."+k] = metric{v, unit}
	}
	record := map[string]any{
		"workload": workload, "seed": r.seed, "seconds": r.seconds.Seconds(),
		"traced": r.tr != nil, "host": hostFingerprint(),
		"attempted": r.attempted, "failed": r.failed, "failures": r.failures,
		"named": r.named, "samples": r.samples, "gen": gen, "sim_counts": r.sim,
		"notes": r.notes,
	}
	line, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	return 0, nil
}

// hostFingerprint identifies the machine class, so numbers from
// different hosts are never compared.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":   model,
		"kernel_tier": rtlpower.SelectedKernel().String(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// meter takes a process's peak resident memory per group of a run's
// operations: the kernel's peak counter is read and reset at each group
// boundary, so set-up is not counted and one group's garbage-collector
// timing does not decide the run.
type meter struct {
	pid string // a process ID, or "self"
	rss []float64
}

func newMeter(pid string) (*meter, error) {
	_, err := peakRSSMB(pid) // reset
	return &meter{pid: pid}, err
}

// group closes a group.
func (m *meter) group() error {
	mb, err := peakRSSMB(m.pid)
	m.rss = append(m.rss, mb)
	return err
}

// peak sets peak_rss_mb to the median group.
func (r *run) peak(m *meter) {
	r.e2e["peak_rss_mb"] = quantile(m.rss, 0.5)
	r.samples["rss_groups"] = len(m.rss)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB and
// resets the peak to the current resident set, so the next read covers
// only what happened since.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			// "5" resets the peak (proc(5), clear_refs).
			if err := os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuStat is the system-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for i, f := range fields[1:9] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuStat{}, err
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}

// stealPct is the share of CPU time the hypervisor took from this
// machine since from: a high value means the run competed with other
// machines, and its timings say more about the host than the program.
func (s cpuStat) stealPct(from cpuStat) float64 {
	if s.total <= from.total {
		return 0
	}
	return 100 * (s.steal - from.steal) / (s.total - from.total)
}
