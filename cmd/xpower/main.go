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
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtenergy/internal/workloads"
	"xtenergy/internal/xpowerd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xpower:", err)
		os.Exit(1)
	}
}

func run() error {
	fast := flag.Bool("fast", false, "use the reduced-resolution reference model")
	name := flag.String("w", "", "workload to analyze")
	list := flag.Bool("list", false, "list available workloads")
	profile := flag.Uint64("profile", 0, "also print a power-vs-time profile with this window (cycles)")
	remote := flag.String("remote", "", "send the request to a running xpowerd at this address (host:port or unix:<path>)")
	noCache := flag.Bool("no-cache", false, "bypass the content-addressed artifact cache: always re-run the pipeline, read and write nothing")
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Println(w.Name)
		}
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *remote != "" {
		client, err := xpowerd.Dial(*remote, 5*time.Second)
		if err != nil {
			return err
		}
		defer client.Close()
		resp, err := client.Do(ctx, &xpowerd.Request{
			Op:            xpowerd.OpEstimate,
			Workload:      *name,
			Fast:          *fast,
			ProfileWindow: *profile,
			NoCache:       *noCache,
		})
		if err != nil {
			return err
		}
		fmt.Print(resp.Output)
		return nil
	}

	text, err := xpowerd.EstimateReport(ctx, xpowerd.EstimateParams{
		Workload:      *name,
		Fast:          *fast,
		ProfileWindow: *profile,
		NoCache:       *noCache,
	})
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}
