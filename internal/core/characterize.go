package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/linalg"
	"xtenergy/internal/procgen"
	"xtenergy/internal/regress"
	"xtenergy/internal/rtlpower"
)

// Observation is one test program's characterization record.
type Observation struct {
	// Name is the test program name.
	Name string
	// Vars are its macro-model variable values.
	Vars Vars
	// OpcodeExec records per-opcode execution counts (used by the
	// per-opcode ablation, which demonstrates why the paper clusters
	// instructions into six classes).
	OpcodeExec [isa.NumOpcodes]uint64
	// MeasuredPJ is the reference (RTL-level) energy.
	MeasuredPJ float64
	// FittedPJ is the macro-model energy after fitting.
	FittedPJ float64
	// RelErr is (Measured-Fitted)/Measured.
	RelErr float64
	// Cycles is the simulated cycle count.
	Cycles uint64
}

// Measurement is the raw outcome of one workload's reference leg
// (processor generation, streamed simulation + RTL-level estimation,
// resource analysis) before any fitting.
type Measurement struct {
	Vars       Vars
	OpcodeExec [isa.NumOpcodes]uint64
	MeasuredPJ float64
	Cycles     uint64
}

// MeasureFunc produces one workload's reference measurement. The
// default is MeasureWorkload; the chaos harness substitutes wrappers
// that sabotage the leg. Implementations must respect ctx.
type MeasureFunc func(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w Workload) (Measurement, error)

// Options configures a characterization run.
type Options struct {
	// Regress selects the fitting variant and its options.
	Regress regress.Options
	// Partial enables graceful degradation: workloads whose reference
	// leg fails (after retries) are dropped and recorded in
	// CharacterizationResult.Failures, and fitting proceeds on the
	// survivors as long as the reduced suite is still well-posed (see
	// Characterize). Without Partial any workload failure aborts the
	// run with a joined error naming every broken program.
	Partial bool
	// Timeout bounds each workload's reference leg; 0 means no
	// per-workload deadline. A timed-out leg raises a cancelled fault
	// that counts as transient (see iss.Fault.IsTransient) and is
	// retried if Retries allows.
	Timeout time.Duration
	// Retries is the number of extra attempts granted to a workload
	// whose failure is transient (iss.Fault.IsTransient). Hard faults
	// (memory faults, illegal instructions, watchdogs...) are
	// deterministic and never retried.
	Retries int
	// Backoff is the base delay inserted before each transient-fault
	// retry, growing exponentially per attempt (capped at 32x) with
	// deterministic per-workload jitter so a pool of flaky legs does
	// not retry in lockstep. 0 means the 100ms default; negative
	// disables the delay (retry immediately). The sleep honors ctx:
	// cancellation interrupts it.
	Backoff time.Duration
	// Measure overrides the reference measurement leg; nil means
	// MeasureWorkload. This is the seam the internal/chaos harness
	// injects failures through.
	Measure MeasureFunc
}

// Failure records one workload dropped from a partial characterization.
type Failure struct {
	// Name is the failed workload's name.
	Name string
	// Attempts is how many times the leg was tried (1 + retries used).
	Attempts int
	// Err is the last attempt's error; when the leg failed with a
	// typed fault it is reachable via iss.AsFault.
	Err error
}

// Kind returns the fault-kind label for reports ("mem-fault",
// "watchdog", ...), or "error" for untyped failures.
func (f Failure) Kind() string {
	if flt, ok := iss.AsFault(f.Err); ok {
		return flt.Kind.String()
	}
	return "error"
}

// CharacterizationResult is the outcome of building a macro-model.
type CharacterizationResult struct {
	Model        *MacroModel
	Observations []Observation
	// Failures lists workloads dropped under Options.Partial, in suite
	// order. Empty on a clean run.
	Failures []Failure
	// Config and Tech record what was characterized.
	Config procgen.Config
	Tech   rtlpower.Technology
}

// Degraded reports whether the model was fitted on a reduced suite.
func (r *CharacterizationResult) Degraded() bool { return len(r.Failures) > 0 }

// MeasureWorkload is the production reference leg: it generates the
// workload's processor, streams the ISS into the RTL-level estimator
// (O(1) memory, cancellable at batch boundaries), and extracts the
// macro-model variables. It also cross-checks the stream: the
// estimator must have consumed exactly the cycles the ISS retired, so
// a consumer that silently drops batches is caught as a measurement
// fault rather than biasing the fit.
func MeasureWorkload(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w Workload) (Measurement, error) {
	proc, prog, err := w.Build(cfg)
	if err != nil {
		return Measurement{}, err
	}
	est, err := rtlpower.New(proc, tech)
	if err != nil {
		return Measurement{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	rep, res, err := est.EstimateProgram(ctx, prog, iss.Options{})
	if err != nil {
		return Measurement{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	if rep.Cycles != res.Stats.Cycles {
		return Measurement{}, &iss.Fault{
			Kind: iss.FaultMeasurement, Prog: w.Name, PC: -1,
			Msg: fmt.Sprintf("trace integrity: estimator consumed %d cycles, ISS retired %d (dropped batches?)", rep.Cycles, res.Stats.Cycles),
		}
	}
	vars, err := Extract(proc.TIE, &res.Stats)
	if err != nil {
		return Measurement{}, fmt.Errorf("core: workload %s: %w", w.Name, err)
	}
	return Measurement{
		Vars:       vars,
		OpcodeExec: res.Stats.OpcodeExec,
		MeasuredPJ: rep.TotalPJ,
		Cycles:     res.Stats.Cycles,
	}, nil
}

// measureOnce runs one attempt of the reference leg under the
// per-workload deadline, recovering a panicking leg into a typed fault
// so one broken workload cannot tear down the whole pool.
func measureOnce(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w Workload, measure MeasureFunc, timeout time.Duration) (m Measurement, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &iss.Fault{Kind: iss.FaultPanic, Prog: w.Name, PC: -1,
				Msg: fmt.Sprintf("measurement leg panicked: %v", r)}
		}
	}()
	return measure(ctx, cfg, tech, w)
}

// measureWithRetry drives one workload's attempts: transient faults
// (flaky oracle, per-workload deadline) are retried up to opts.Retries
// extra times, with exponential backoff between attempts; hard faults
// and parent cancellation stop immediately.
func measureWithRetry(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, w Workload, measure MeasureFunc, opts Options) (Measurement, int, error) {
	attempts := 0
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return Measurement{}, attempts, &iss.Fault{
				Kind: iss.FaultCancelled, Prog: w.Name, PC: -1,
				Msg: "characterization cancelled", Err: cerr,
			}
		}
		attempts++
		m, err := measureOnce(ctx, cfg, tech, w, measure, opts.Timeout)
		if err == nil {
			if math.IsNaN(m.MeasuredPJ) || math.IsInf(m.MeasuredPJ, 0) {
				err = &iss.Fault{Kind: iss.FaultMeasurement, Prog: w.Name, PC: -1,
					Msg: fmt.Sprintf("reference energy is %v", m.MeasuredPJ)}
			} else {
				return m, attempts, nil
			}
		}
		f, ok := iss.AsFault(err)
		if !ok || !f.IsTransient() || attempt >= opts.Retries || ctx.Err() != nil {
			return Measurement{}, attempts, err
		}
		if cerr := sleepBackoff(ctx, retryDelay(opts.Backoff, w.Name, attempt)); cerr != nil {
			return Measurement{}, attempts, &iss.Fault{
				Kind: iss.FaultCancelled, Prog: w.Name, PC: -1,
				Msg: "characterization cancelled during retry backoff", Err: cerr,
			}
		}
	}
}

// defaultRetryBackoff is the base retry delay when Options.Backoff is 0.
const defaultRetryBackoff = 100 * time.Millisecond

// retryDelay computes the pause before retry number attempt+1 (attempt
// counts completed attempts, so the first retry sees attempt 0):
// exponential in the attempt, capped at 32x the base, with ±25% jitter
// derived deterministically from the workload name and attempt — no
// shared RNG, so concurrent legs stay race-free and runs reproducible,
// yet a pool of flaky legs never retries in lockstep.
func retryDelay(base time.Duration, name string, attempt int) time.Duration {
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = defaultRetryBackoff
	}
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := base << shift
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, attempt)
	frac := float64(h.Sum64()%1024) / 1024 // [0, 1)
	return time.Duration(float64(d) * (0.75 + float64(0.5*frac)))
}

// sleepBackoff waits d, returning early with ctx.Err() on cancellation
// (a cancelled characterization must not sit out its backoff).
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// staticCover marks the macro-model columns a workload can possibly
// drive among those decidable without running it: the custom-hardware
// category columns (from the extension's declared datapaths) and the
// register-file side-effect column. The instruction-level columns are
// dynamic and are handled by the zero-column exclusion instead.
func staticCover(w *Workload, cover *[NumVars]bool) {
	if w.Ext == nil {
		return
	}
	for _, in := range w.Ext.Instructions {
		if in.AccessesGeneralRegfile() {
			cover[VCustomSideEffect] = true
		}
		for _, el := range in.Datapath {
			cover[VCustomBase+int(el.Cat)] = true
		}
	}
}

// Characterize runs the full characterization flow (paper Fig. 2, steps
// 1-8): for every test program it generates the custom processor,
// streams instruction-set simulation directly into the RTL-level
// reference estimator (no trace is materialized), performs dynamic
// resource-usage analysis, and finally fits the 21 energy coefficients
// by regression.
//
// The test suite must exercise enough variable diversity for the system
// to be well-posed: at least NumVars programs, covering the base
// instruction classes, the non-ideal cases, and all ten custom-hardware
// categories. Columns that are identically zero across the suite (e.g.
// an unused hardware category) are excluded from the regression and
// their coefficients reported as zero.
//
// Fault tolerance: each workload leg runs under opts.Timeout with
// opts.Retries extra attempts for transient faults; a panicking leg is
// recovered into a typed fault. Under opts.Partial, failed workloads
// are dropped and recorded in the result's Failures, and fitting
// proceeds iff the surviving suite is still well-posed — at least
// NumVars observations remain, and no statically-covered custom column
// lost all of its covering workloads (the banded cover design of
// internal/workloads puts every category in three programs precisely so
// isolated failures cannot silence a column). Cancelling ctx aborts
// the pool and returns ctx.Err() directly.
func Characterize(ctx context.Context, cfg procgen.Config, tech rtlpower.Technology, programs []Workload, opts Options) (*CharacterizationResult, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("core: no test programs")
	}
	measure := opts.Measure
	if measure == nil {
		measure = MeasureWorkload
	}

	// Each test program's leg — processor generation, streamed simulation
	// + reference power estimation, resource analysis — is independent of
	// the others, so the suite is measured with a worker pool. Within
	// each worker the ISS feeds the incremental estimator through a
	// small ring of compiled chunks (rtlpower.RunStreamed via
	// EstimateProgram): no execution trace is ever materialized, so
	// memory stays O(1) in workload length and simulation overlaps with
	// per-net estimation.
	// Results are deterministic regardless of scheduling: every program
	// gets its own simulator and stream estimator (with the technology's
	// fixed seed).
	obs := make([]Observation, len(programs))
	errs := make([]error, len(programs))
	attempts := make([]int, len(programs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range programs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w := programs[i]
			m, n, err := measureWithRetry(ctx, cfg, tech, w, measure, opts)
			attempts[i] = n
			if err != nil {
				errs[i] = err
				return
			}
			obs[i] = Observation{
				Name:       w.Name,
				Vars:       m.Vars,
				OpcodeExec: m.OpcodeExec,
				MeasuredPJ: m.MeasuredPJ,
				Cycles:     m.Cycles,
			}
		}(i)
	}
	wg.Wait()
	// Parent cancellation dominates per-workload noise: every pending leg
	// failed with a cancelled fault, so report the context error itself.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var failures []Failure
	for i, err := range errs {
		if err != nil {
			failures = append(failures, Failure{Name: programs[i].Name, Attempts: attempts[i], Err: err})
		}
	}
	if len(failures) > 0 && !opts.Partial {
		// A failing suite reports every broken program, not just the
		// first: each per-workload error is named, and errors.Join skips
		// the programs that succeeded.
		return nil, errors.Join(errs...)
	}

	// Surviving observations, in suite order.
	surviving := obs[:0:0]
	for i := range obs {
		if errs[i] == nil {
			surviving = append(surviving, obs[i])
		}
	}
	if len(failures) > 0 {
		// Well-posedness of the reduced suite. Observation count first...
		if len(surviving) < NumVars {
			return nil, fmt.Errorf("core: partial characterization ill-posed: %d of %d workloads failed, %d survivors < %d variables: %w",
				len(failures), len(programs), len(surviving), NumVars, errors.Join(errs...))
		}
		// ...then column coverage: a custom column covered by the full
		// suite must still be covered by a survivor, else the fit would
		// silently zero a coefficient the caller expects to be trained.
		var full, surv [NumVars]bool
		for i := range programs {
			staticCover(&programs[i], &full)
			if errs[i] == nil {
				staticCover(&programs[i], &surv)
			}
		}
		for j := VCustomSideEffect; j < NumVars; j++ {
			if full[j] && !surv[j] {
				return nil, fmt.Errorf("core: partial characterization ill-posed: variable %s lost every covering workload: %w",
					VarName(j), errors.Join(errs...))
			}
		}
	}

	rows := make([][]float64, len(surviving))
	energies := make([]float64, len(surviving))
	for i := range surviving {
		rows[i] = surviving[i].Vars[:]
		energies[i] = surviving[i].MeasuredPJ
	}

	// Exclude identically-zero columns so QR stays full rank when a
	// category is unused by the suite.
	used := make([]int, 0, NumVars)
	for j := 0; j < NumVars; j++ {
		for _, r := range rows {
			if r[j] != 0 {
				used = append(used, j)
				break
			}
		}
	}
	if len(rows) < len(used) {
		return nil, fmt.Errorf("core: %d test programs cannot identify %d active variables; add programs", len(rows), len(used))
	}

	x := linalg.NewMatrix(len(rows), len(used))
	for i, r := range rows {
		for jj, j := range used {
			x.Set(i, jj, r[j])
		}
	}
	fit, err := regress.FitLinear(x, energies, opts.Regress)
	if err != nil {
		return nil, fmt.Errorf("core: regression failed: %w", err)
	}

	model := &MacroModel{Fit: fit}
	for jj, j := range used {
		model.Coef[j] = fit.Coef[jj]
		if fit.StdErr != nil {
			model.CoefStdErr[j] = fit.StdErr[jj]
		}
	}
	for i := range surviving {
		surviving[i].FittedPJ = model.EstimatePJ(surviving[i].Vars)
		if surviving[i].MeasuredPJ != 0 {
			surviving[i].RelErr = (surviving[i].MeasuredPJ - surviving[i].FittedPJ) / surviving[i].MeasuredPJ
		}
	}
	return &CharacterizationResult{
		Model:        model,
		Observations: surviving,
		Failures:     failures,
		Config:       cfg,
		Tech:         tech,
	}, nil
}

// FormatFailures renders the failure report of a degraded
// characterization, one line per dropped workload.
func FormatFailures(fails []Failure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d workload(s) failed characterization:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(&b, "  %-12s %-15s attempts=%d  %v\n", f.Name, f.Kind(), f.Attempts, f.Err)
	}
	return b.String()
}
