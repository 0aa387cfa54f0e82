// Command characterize builds the energy macro-model for the default
// extensible-processor configuration by running the full
// characterization flow (Fig. 2 of the paper, steps 1-8) over the test
// program suite, then prints the recovered Table I coefficients and the
// Fig. 3 fitting-error profile.
//
// Usage:
//
//	characterize [-fast] [-ridge λ] [-nonneg] [-timeout d] [-retries n] [-partial]
//
// Exit status: 0 on a clean run, 1 when -partial dropped failed
// workloads (the failure report goes to stderr; stdout stays
// machine-parseable), 2 on a hard failure.
package main

import (
	"context"
	"flag"
	"fmt"

	"xtenergy/internal/cli"
	"xtenergy/internal/experiments"
)

var (
	suiteFlags = cli.NewSuiteFlags(true)
	ridge      = flag.Float64("ridge", 0, "ridge regularization strength for the regression")
	nonneg     = flag.Bool("nonneg", false, "constrain energy coefficients to be nonnegative")
	save       = flag.String("save", "", "write the characterized model to this JSON file")
)

func main() { cli.Main("characterize", run) }

func run(ctx context.Context) (int, error) {
	suite := suiteFlags.Suite(ctx)
	suite.Opts.Regress.Ridge = *ridge
	suite.Opts.Regress.NonNegative = *nonneg

	cr, err := suite.Characterization()
	if err != nil {
		return 0, err
	}

	rows, err := suite.Table1()
	if err != nil {
		return 0, err
	}
	fmt.Print(experiments.FormatTable1(rows))
	fmt.Println()

	fig3, err := suite.Fig3()
	if err != nil {
		return 0, err
	}
	fmt.Print(experiments.FormatFig3(fig3))
	fmt.Printf("\nregression: %d observations, R^2 = %.4f, condition estimate = %.1f\n",
		len(cr.Observations), cr.Model.Fit.R2, cr.Model.Fit.CondEstimate)

	if *save != "" {
		if err := cr.Model.Save(*save); err != nil {
			return 0, err
		}
		fmt.Println("model written to", *save)
	}
	return cli.Degraded(cr), nil
}
