// Command experiments regenerates every table and figure of the paper's
// evaluation section: Table I (energy coefficients), Fig. 3 (fitting
// errors), Table II (application estimates vs. reference), Fig. 4
// (Reed-Solomon relative accuracy), the speedup comparison, and the
// ablation studies.
//
// Usage:
//
//	experiments [-fast] [-out file] [table1|fig3|table2|fig4|speedup|ablation|config ...]
//	experiments bench [-json BENCH_iss.json] [-benchtime 2s] [-check]
//
// With no arguments, all experiments run in order. The bench subcommand
// runs the ISS-path micro-benchmarks in process and updates the
// BENCH_iss.json perf trajectory (see cmd/experiments/bench.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xtenergy/internal/cli"
	"xtenergy/internal/experiments"
)

var (
	suiteFlags = cli.NewSuiteFlags(false)
	out        = flag.String("out", "", "also write the report to this file")
)

func main() { cli.Main("experiments", run) }

func run(ctx context.Context) (int, error) {
	which := flag.Args()
	if len(which) > 0 && which[0] == "bench" {
		return 0, runBench(which[1:])
	}
	if len(which) == 0 {
		which = []string{"table1", "fig3", "table2", "fig4", "speedup", "ablation", "config", "validation", "loocv", "stability", "sabotage"}
	}

	suite := suiteFlags.Suite(ctx)
	var report strings.Builder
	w := io.MultiWriter(os.Stdout, &report)
	for _, name := range which {
		text, err := runOne(suite, name)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(w, text)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			return 0, err
		}
		fmt.Fprintln(os.Stderr, "report written to", *out)
	}
	return 0, nil
}

func runOne(suite *experiments.Suite, name string) (string, error) {
	switch name {
	case "table1":
		rows, err := suite.Table1()
		if err != nil {
			return "", err
		}
		return experiments.FormatTable1(rows), nil
	case "fig3":
		f, err := suite.Fig3()
		if err != nil {
			return "", err
		}
		return experiments.FormatFig3(f), nil
	case "table2":
		t, err := suite.Table2()
		if err != nil {
			return "", err
		}
		return experiments.FormatTable2(t), nil
	case "fig4":
		p, err := suite.Fig4()
		if err != nil {
			return "", err
		}
		return experiments.FormatFig4(p), nil
	case "speedup":
		r, err := suite.Speedup()
		if err != nil {
			return "", err
		}
		return experiments.FormatSpeedup(r), nil
	case "ablation":
		a, err := suite.Ablations()
		if err != nil {
			return "", err
		}
		text := experiments.FormatAblations(a)
		vars, obs, solvable, err := suite.PerOpcodeAblation()
		if err != nil {
			return "", err
		}
		text += fmt.Sprintf("per-opcode (unclustered) variant: %d variables vs %d observations -> solvable: %v\n",
			vars, obs, solvable)
		text += "(this is why the paper clusters the base ISA into six classes)\n"
		return text, nil
	case "config":
		c, err := suite.ConfigSensitivity()
		if err != nil {
			return "", err
		}
		return experiments.FormatConfigSensitivity(c), nil
	case "validation":
		v, err := suite.Validation()
		if err != nil {
			return "", err
		}
		return experiments.FormatValidation(v), nil
	case "loocv":
		c, err := suite.CrossValidation()
		if err != nil {
			return "", err
		}
		return experiments.FormatCrossValidation(c), nil
	case "stability":
		r, err := suite.Stability(5)
		if err != nil {
			return "", err
		}
		return experiments.FormatStability(r), nil
	case "sabotage":
		r, err := suite.Sabotage()
		if err != nil {
			return "", err
		}
		return experiments.FormatSabotage(r), nil
	}
	return "", fmt.Errorf("unknown experiment %q (want table1, fig3, table2, fig4, speedup, ablation, config, validation, loocv, stability, or sabotage)", name)
}
