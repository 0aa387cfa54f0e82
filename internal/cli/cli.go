// Package cli is the front every command shares: flag parsing, signal
// wiring and the 0/1/2 exit status, plus the plumbing several commands
// repeat — workload -list and lookup, the choice between -w and an
// assembly file, the characterization flags, the load-or-characterize
// step and the -remote dial.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/experiments"
	"xtenergy/internal/iss"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

// Main parses the command line and runs run under a context that the
// first SIGINT/SIGTERM cancels; a second signal kills the process. A
// returned error is printed as "<name>: <err>" and exits 2. Otherwise
// the process exits with run's status: 0 clean, 1 completed with
// findings or a degraded result. These are the statuses xpowerd puts on
// the wire (xpowerd.StatusOK, StatusDegraded, StatusFailed).
func Main(name string, run func(ctx context.Context) (int, error)) {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // restore the default handlers: the next signal kills
	}()
	status, err := run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		status = xpowerd.StatusFailed
	}
	os.Exit(status)
}

// List prints ws for -list, one per line: the bare name, or with ext
// the name and its "base" or "tie:<extension>" column.
func List(ws []core.Workload, ext bool) {
	for _, w := range ws {
		switch {
		case !ext:
			fmt.Println(w.Name)
		case w.Ext == nil:
			fmt.Printf("%-24s base\n", w.Name)
		default:
			fmt.Printf("%-24s tie:%s\n", w.Name, w.Ext.Name)
		}
	}
}

// Lookup finds the workload named by -w among ws.
func Lookup(ws []core.Workload, name string) (core.Workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return core.Workload{}, fmt.Errorf("unknown workload %q (try -list)", name)
}

// Program is what xsim and xlint run: a built-in workload named by -w,
// or XT32 assembly (base ISA) read from the one file argument and
// labelled with its path.
type Program struct {
	Workload           string
	Source, SourceName string
}

// ProgramArg chooses between -w name and an assembly-file argument;
// with neither it prints the usage and fails.
func ProgramArg(name string) (Program, error) {
	switch {
	case name != "":
		return Program{Workload: name}, nil
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return Program{}, err
		}
		return Program{Source: string(src), SourceName: flag.Arg(0)}, nil
	}
	flag.Usage()
	return Program{}, errors.New("need -list, -w <name>, or an assembly file")
}

// Build assembles the program for the default processor configuration,
// looking a -w name up in the registry.
func (p Program) Build() (*procgen.Processor, *iss.Program, error) {
	w := core.Workload{Name: p.SourceName, Source: p.Source}
	if p.Workload != "" {
		var err error
		if w, err = Lookup(workloads.All(), p.Workload); err != nil {
			return nil, nil, err
		}
	}
	return w.Build(procgen.Default())
}

// SuiteFlags are the characterization flags: -fast, and on the commands
// that fit a model, the fault-tolerance knobs.
type SuiteFlags struct {
	fast bool
	opts core.Options
}

// NewSuiteFlags registers -fast and, when faults is set, -timeout,
// -retries, -backoff and -partial.
func NewSuiteFlags(faults bool) *SuiteFlags {
	f := &SuiteFlags{}
	flag.BoolVar(&f.fast, "fast", false, "use the reduced-resolution reference model")
	if faults {
		flag.DurationVar(&f.opts.Timeout, "timeout", 0, "per-workload characterization deadline (0 = none)")
		flag.IntVar(&f.opts.Retries, "retries", 0, "extra attempts for transiently-failing characterization workloads")
		flag.DurationVar(&f.opts.Backoff, "backoff", 0, "base delay between retry attempts, growing exponentially (0 = 100ms default, negative = retry immediately)")
		flag.BoolVar(&f.opts.Partial, "partial", false, "characterize on the surviving workloads when some fail (degraded runs exit 1)")
	}
	return f
}

// Suite returns the experiments suite the flags select, bound to ctx.
func (f *SuiteFlags) Suite(ctx context.Context) *experiments.Suite {
	s := experiments.Default()
	if f.fast {
		s = experiments.Fast()
	}
	s.Ctx, s.Opts = ctx, f.opts
	return s
}

// Model loads the macro-model at path, or characterizes s when path is
// empty. The status is Degraded's.
func Model(s *experiments.Suite, path string) (*core.MacroModel, int, error) {
	if path != "" {
		m, err := core.LoadModel(path)
		return m, 0, err
	}
	fmt.Println("characterizing the processor (one-time cost per configuration)...")
	cr, err := s.Characterization()
	if err != nil {
		return nil, 0, err
	}
	return cr.Model, Degraded(cr), nil
}

// Degraded prints a partial characterization's failure report on
// stderr, so stdout stays machine-parseable, and returns status 1; a
// clean characterization returns 0.
func Degraded(cr *core.CharacterizationResult) int {
	if !cr.Degraded() {
		return 0
	}
	fmt.Fprint(os.Stderr, core.FormatFailures(cr.Failures))
	return 1
}

// Remote sends req to the xpowerd daemon at addr (host:port or
// unix:<path>), prints the report and returns the daemon's status. A
// request the daemon fails comes back as the error.
func Remote(ctx context.Context, addr string, req *xpowerd.Request) (int, error) {
	client, err := xpowerd.Dial(addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	resp, err := client.Do(ctx, req)
	if err != nil {
		return 0, err
	}
	fmt.Print(resp.Output)
	return resp.Status, nil
}
