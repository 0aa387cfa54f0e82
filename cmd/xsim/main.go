// Command xsim runs XT32 programs on the instruction-set simulator and
// reports the execution statistics the energy macro-model consumes.
//
// Usage:
//
//	xsim -list               list built-in workloads
//	xsim -w <name>           run a built-in workload (test program or app)
//	xsim <file.s>            assemble and run an XT32 assembly file (base ISA)
//	xsim -disasm -w <name>   print the disassembly instead of running
//	xsim -timeout 5s ...     abort the run after a wall-clock deadline
//
// The plain report (optionally -vars) renders through
// xpowerd.SimulateReport, so repeated identical runs are answered from
// the content-addressed artifact cache; -no-cache forces a fresh
// simulation.
//
// Exit status: 0 on success, 2 on any failure. A failed simulation adds
// a structured fault report to its error on stderr (kind, program
// counter, instruction, cycle, address).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xtenergy/internal/cli"
	"xtenergy/internal/core"
	"xtenergy/internal/engine"
	"xtenergy/internal/isa"
	"xtenergy/internal/iss"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

var (
	list      = flag.Bool("list", false, "list built-in workloads")
	name      = flag.String("w", "", "run the named built-in workload")
	disasm    = flag.Bool("disasm", false, "print disassembly instead of running")
	showVars  = flag.Bool("vars", false, "print the 21 macro-model variables")
	netlist   = flag.Bool("netlist", false, "print the generated processor's structural netlist")
	traceN    = flag.Int("trace", 0, "print the first N trace entries")
	asJSON    = flag.Bool("json", false, "emit the statistics and macro-model variables as JSON")
	timeout   = flag.Duration("timeout", 0, "abort the run after this wall-clock deadline (0 = none)")
	maxCycles = flag.Uint64("maxcycles", 0, "watchdog cycle limit (0 = default)")
	noCache   = flag.Bool("no-cache", false, "bypass the content-addressed artifact cache: always re-run the simulator")
)

func main() {
	cli.Main("xsim", func(ctx context.Context) (int, error) {
		return 0, faultReport(run(ctx))
	})
}

// faultReport appends a typed fault's structured report (kind, program
// counter, instruction, cycle, address) to the error's text.
func faultReport(err error) error {
	f, ok := iss.AsFault(err)
	if !ok {
		return err
	}
	site := ""
	if f.PC >= 0 {
		site = fmt.Sprintf("\n  pc:    %d\n  instr: %s\n  cycle: %d", f.PC, f.Instr.String(), f.Cycle)
	}
	if f.Kind == iss.FaultMem {
		site += fmt.Sprintf("\n  addr:  %#x", f.Addr)
	}
	return fmt.Errorf("%w\nfault report:\n  kind:  %s%s", err, f.Kind, site)
}

func run(ctx context.Context) error {
	if *list {
		cli.List(workloads.All(), true)
		return nil
	}
	p, err := cli.ProgramArg(*name)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The plain report (optionally -vars) renders through the
	// daemon-shared entry point, so a repeated run is answered from the
	// content-addressed artifact cache instead of re-simulating. The
	// richer modes (disassembly, netlist, trace, JSON, a custom
	// watchdog) keep the direct local flow, which never consults the
	// cache.
	if !*disasm && !*netlist && *traceN == 0 && !*asJSON && *maxCycles == 0 {
		text, err := xpowerd.SimulateReport(ctx, xpowerd.SimulateParams{
			Workload: p.Workload, Source: p.Source, SourceName: p.SourceName,
			Vars: *showVars, NoCache: *noCache,
		})
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}

	proc, prog, err := p.Build()
	if err != nil {
		return err
	}
	if *disasm {
		fmt.Print(isa.Disassemble(prog.Code))
		return nil
	}
	if *netlist {
		return proc.WriteNetlist(os.Stdout)
	}
	res, err := iss.New(proc).RunContext(ctx, prog, iss.Options{CollectTrace: *traceN > 0, MaxCycles: *maxCycles})
	if err != nil {
		return err
	}
	if *traceN > 0 {
		n := *traceN
		if n > len(res.Trace) {
			n = len(res.Trace)
		}
		for i := 0; i < n; i++ {
			te := res.Trace[i]
			events := ""
			if te.ICMiss {
				events += " icmiss"
			}
			if te.DCMiss {
				events += " dcmiss"
			}
			if te.Uncached {
				events += " uncached"
			}
			if te.Interlock {
				events += " interlock"
			}
			if te.Taken {
				events += " taken"
			}
			fmt.Printf("%6d  pc=%-6d %-28s cycles=%-3d rs=%#x rt=%#x res=%#x%s\n",
				i, te.PC, te.Instr.String(), te.Cycles, te.RsVal, te.RtVal, te.Result, events)
		}
		fmt.Println()
	}
	vars, err := core.Extract(proc.TIE, &res.Stats)
	if err != nil {
		return err
	}
	if *asJSON {
		named := map[string]float64{}
		for i, v := range vars {
			if v != 0 {
				named[core.VarName(i)] = v
			}
		}
		out := map[string]any{
			"workload":     prog.Name,
			"instructions": len(prog.Code),
			"cycles":       res.Stats.Cycles,
			"retired":      res.Stats.Retired,
			"cpi":          res.Stats.CPI(),
			"variables":    named,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	a := &engine.SimulateArtifact{Workload: prog.Name, Instructions: len(prog.Code), Stats: res.Stats, Vars: vars}
	fmt.Print(a.Render(*showVars))
	return nil
}
