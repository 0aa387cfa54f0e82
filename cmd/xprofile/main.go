// Command xprofile is a software energy profiler driven by the
// characterized macro-model: it attributes a workload's estimated energy
// to labeled code regions and to individual instructions. Attribution is
// exact — the per-instruction energies sum to the macro-model's
// whole-program estimate.
//
// Usage:
//
//	xprofile [-fast] [-model file] [-top n] -w <workload>
//	xprofile -list
package main

import (
	"context"
	"flag"
	"fmt"

	"xtenergy/internal/cli"
	"xtenergy/internal/profiler"
	"xtenergy/internal/workloads"
)

var (
	suiteFlags = cli.NewSuiteFlags(false)
	modelPath  = flag.String("model", "", "load a characterized model instead of re-characterizing")
	name       = flag.String("w", "", "workload to profile")
	top        = flag.Int("top", 10, "number of hottest instructions to print")
	list       = flag.Bool("list", false, "list available workloads")
)

func main() { cli.Main("xprofile", run) }

func run(ctx context.Context) (int, error) {
	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return 0, nil
	}
	w, err := cli.Lookup(workloads.All(), *name)
	if err != nil {
		return 0, err
	}

	suite := suiteFlags.Suite(ctx)
	model, _, err := cli.Model(suite, *modelPath)
	if err != nil {
		return 0, err
	}

	proc, prog, err := w.Build(suite.Config)
	if err != nil {
		return 0, err
	}
	rep, res, err := profiler.Profile(ctx, model, proc, prog)
	if err != nil {
		return 0, err
	}

	fmt.Printf("\nworkload %s: %d retired instructions, %d cycles\n\n",
		w.Name, res.Stats.Retired, rep.Cycles)
	fmt.Print(rep.FormatRegions())
	fmt.Println()
	fmt.Print(rep.FormatHotLines(*top))
	return 0, nil
}
