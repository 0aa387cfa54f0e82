// Command explore runs a design-space exploration with the energy
// macro-model: the Reed-Solomon kernel's four custom-instruction choices
// crossed with two base-core configurations (the default T1040-like core
// and a small-cache variant), eight candidates priced in milliseconds,
// with the Pareto frontier marked.
//
// This is the workflow the paper motivates: without the macro-model,
// every candidate would need synthesis plus hours of RTL power
// estimation.
//
// Usage:
//
//	explore [-fast] [-model file]
package main

import (
	"context"
	"flag"
	"fmt"

	"xtenergy/internal/cli"
	"xtenergy/internal/core"
	"xtenergy/internal/experiments"
	"xtenergy/internal/explore"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
)

var (
	suiteFlags = cli.NewSuiteFlags(false)
	modelPath  = flag.String("model", "", "load a characterized model instead of re-characterizing")
)

func main() { cli.Main("explore", run) }

func run(ctx context.Context) (int, error) {
	// The macro-model is per base configuration (see the config
	// sensitivity experiment), so each configuration in the sweep gets
	// its own characterization — still a one-time cost per family.
	configs := []procgen.Config{procgen.Default(), experiments.AltConfig()}
	models := make(map[string]*core.MacroModel, len(configs))
	if *modelPath != "" {
		m, err := core.LoadModel(*modelPath)
		if err != nil {
			return 0, err
		}
		for _, cfg := range configs {
			models[cfg.Name] = m
		}
		fmt.Println("using the supplied model for every configuration (cross-config error applies)")
	} else {
		for _, cfg := range configs {
			fmt.Printf("characterizing %s...\n", cfg.Name)
			// The suite resolves through the content-addressed engine:
			// a sweep re-run (or any other tool characterizing the same
			// family) recalls the fitted model instead of re-simulating
			// the 25-program suite.
			suite := suiteFlags.Suite(ctx)
			suite.Config = cfg
			cr, err := suite.Characterization()
			if err != nil {
				return 0, err
			}
			models[cfg.Name] = cr.Model
		}
	}

	var points []explore.Point
	for _, cfg := range configs {
		var cands []explore.Candidate
		for _, w := range workloads.ReedSolomonConfigurations() {
			cands = append(cands, explore.Candidate{Name: w.Name, Config: cfg, Workload: w})
		}
		ps, err := explore.Evaluate(models[cfg.Name], cands)
		if err != nil {
			return 0, err
		}
		points = append(points, ps...)
	}
	// Re-mark Pareto across the combined space.
	points = explore.Remark(points)
	fmt.Println()
	fmt.Print(explore.Format(points))

	front := explore.ParetoFrontier(points)
	fmt.Printf("\nPareto frontier (%d of %d candidates):\n", len(front), len(points))
	for _, p := range front {
		fmt.Printf("  %-12s on %-20s %8d cycles, %6.2f uJ\n",
			p.Name, p.Config.Name, p.Cycles, p.EnergyUJ())
	}
	if best, err := explore.MinEnergy(points); err == nil {
		fmt.Printf("\nlowest energy: %s on %s (%.2f uJ)\n", best.Name, best.Config.Name, best.EnergyUJ())
	}
	if best, err := explore.MinEDP(points); err == nil {
		fmt.Printf("lowest EDP:    %s on %s\n", best.Name, best.Config.Name)
	}
	return 0, nil
}
