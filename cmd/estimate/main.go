// Command estimate runs the fast macro-model energy-estimation path
// (Fig. 2 of the paper, steps 9-11) for one application: instruction-set
// simulation, dynamic resource-usage analysis, and the macro-model dot
// product. With -ref it also runs the slow RTL-level reference estimator
// and reports the error — one row of the paper's Table II.
//
// Usage:
//
//	estimate [-fast] [-ref] [-timeout d] [-retries n] [-partial] -w <workload>
//	estimate -list
//
// Exit status: 0 on a clean run, 1 when -partial characterization
// dropped failed workloads (the failure report goes to stderr; stdout
// stays machine-parseable), 2 on a hard failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"xtenergy/internal/cli"
	"xtenergy/internal/core"
	"xtenergy/internal/workloads"
)

var (
	suiteFlags = cli.NewSuiteFlags(true)
	withRef    = flag.Bool("ref", false, "also run the RTL-level reference estimator")
	name       = flag.String("w", "", "workload to estimate")
	list       = flag.Bool("list", false, "list estimable workloads")
	modelPath  = flag.String("model", "", "load a characterized model from this JSON file instead of re-characterizing")
	breakdown  = flag.Bool("breakdown", false, "print the estimate's per-term decomposition")
)

func main() { cli.Main("estimate", run) }

func candidates() []core.Workload {
	var ws []core.Workload
	ws = append(ws, workloads.Applications()...)
	ws = append(ws, workloads.ValidationApplications()...)
	ws = append(ws, workloads.ReedSolomonConfigurations()...)
	return ws
}

func run(ctx context.Context) (int, error) {
	if *list {
		cli.List(candidates(), false)
		return 0, nil
	}
	w, err := cli.Lookup(candidates(), *name)
	if err != nil {
		return 0, err
	}

	suite := suiteFlags.Suite(ctx)
	model, status, err := cli.Model(suite, *modelPath)
	if err != nil {
		return 0, err
	}

	start := time.Now()
	est, err := model.EstimateWorkload(suite.Config, w)
	if err != nil {
		return 0, err
	}
	estTime := time.Since(start)
	fmt.Printf("macro-model estimate: %.3f uJ over %d cycles (%.1f mW at %.0f MHz) in %v\n",
		est.EnergyUJ(), est.Cycles,
		est.EnergyPJ/float64(est.Cycles)*suite.Config.ClockMHz*1e6*1e-9,
		suite.Config.ClockMHz, estTime)

	if *breakdown {
		fmt.Println()
		fmt.Print(core.FormatBreakdown(model.Breakdown(est.Vars)))
	}

	if *withRef {
		start = time.Now()
		ref, err := core.ReferenceEnergy(ctx, suite.Config, suite.Tech, w)
		if err != nil {
			return 0, err
		}
		refTime := time.Since(start)
		errPct := 100 * (est.EnergyPJ - ref.EnergyPJ) / ref.EnergyPJ
		fmt.Printf("reference (RTL-level): %.3f uJ in %v\n", ref.EnergyUJ(), refTime)
		fmt.Printf("error: %+.1f%%, reference/macro time ratio: %.0fx\n",
			errPct, float64(refTime)/float64(estTime))
	}
	return status, nil
}
