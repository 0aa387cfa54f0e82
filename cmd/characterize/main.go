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
	"os"
	"os/signal"
	"syscall"

	"xtenergy/internal/core"
	"xtenergy/internal/experiments"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(2)
}

func main() {
	fast := flag.Bool("fast", false, "use the reduced-resolution reference model (quicker, slightly noisier)")
	ridge := flag.Float64("ridge", 0, "ridge regularization strength for the regression")
	nonneg := flag.Bool("nonneg", false, "constrain energy coefficients to be nonnegative")
	save := flag.String("save", "", "write the characterized model to this JSON file")
	timeout := flag.Duration("timeout", 0, "per-workload reference-measurement deadline (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts for transiently-failing workloads")
	backoff := flag.Duration("backoff", 0, "base delay between retry attempts, growing exponentially (0 = 100ms default, negative = retry immediately)")
	partial := flag.Bool("partial", false, "drop failed workloads and fit on the survivors (degraded runs exit 1)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	suite := experiments.Default()
	if *fast {
		suite = experiments.Fast()
	}
	suite.Ctx = ctx
	suite.Regress.Ridge = *ridge
	suite.Regress.NonNegative = *nonneg
	suite.Timeout = *timeout
	suite.Retries = *retries
	suite.Backoff = *backoff
	suite.Partial = *partial

	cr, err := suite.Characterization()
	if err != nil {
		fail(err)
	}

	rows, err := suite.Table1()
	if err != nil {
		fail(err)
	}
	fmt.Print(experiments.FormatTable1(rows))
	fmt.Println()

	fig3, err := suite.Fig3()
	if err != nil {
		fail(err)
	}
	fmt.Print(experiments.FormatFig3(fig3))
	fmt.Printf("\nregression: %d observations, R^2 = %.4f, condition estimate = %.1f\n",
		len(cr.Observations), cr.Model.Fit.R2, cr.Model.Fit.CondEstimate)

	if *save != "" {
		if err := cr.Model.Save(*save); err != nil {
			fail(err)
		}
		fmt.Println("model written to", *save)
	}

	if cr.Degraded() {
		fmt.Fprint(os.Stderr, core.FormatFailures(cr.Failures))
		os.Exit(1)
	}
}
