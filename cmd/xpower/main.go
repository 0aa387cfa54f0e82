// Command xpower runs the RTL-level reference power estimator over one
// workload and prints a WattWatcher-style per-block energy breakdown —
// the slow, accurate view of where an extended processor's energy goes,
// including the base-core vs custom-hardware split.
//
// The report is rendered by xpowerd.EstimateReport, the same entry
// point the xpowerd daemon serves, so `xpower -remote <addr>` output is
// byte-identical to a local run. Ctrl-C / SIGTERM cancels the streamed
// pipeline through its context.
//
// Usage:
//
//	xpower [-fast] [-profile window] -w <workload>
//	xpower -remote host:port|unix:<path> -w <workload>
//	xpower -list
package main

import (
	"context"
	"flag"
	"fmt"

	"xtenergy/internal/cli"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

var (
	fast    = flag.Bool("fast", false, "use the reduced-resolution reference model")
	name    = flag.String("w", "", "workload to analyze")
	list    = flag.Bool("list", false, "list available workloads")
	profile = flag.Uint64("profile", 0, "also print a power-vs-time profile with this window (cycles)")
	remote  = flag.String("remote", "", "send the request to a running xpowerd at this address (host:port or unix:<path>)")
	noCache = flag.Bool("no-cache", false, "bypass the content-addressed artifact cache: always re-run the pipeline, read and write nothing")
)

func main() { cli.Main("xpower", run) }

func run(ctx context.Context) (int, error) {
	if *list {
		cli.List(workloads.All(), false)
		return 0, nil
	}
	if *remote != "" {
		return cli.Remote(ctx, *remote, &xpowerd.Request{
			Op:            xpowerd.OpEstimate,
			Workload:      *name,
			Fast:          *fast,
			ProfileWindow: *profile,
			NoCache:       *noCache,
		})
	}

	text, err := xpowerd.EstimateReport(ctx, xpowerd.EstimateParams{
		Workload:      *name,
		Fast:          *fast,
		ProfileWindow: *profile,
		NoCache:       *noCache,
	})
	if err != nil {
		return 0, err
	}
	fmt.Print(text)
	return 0, nil
}
