// Command xanalyze runs the project-invariant analyzer suite
// (internal/analyzers) over this module's packages.
//
// Usage:
//
//	xanalyze [-list] [patterns...]
//
// Patterns default to ./... and are resolved by `go list` in the current
// directory. Exit status: 0 clean, 1 findings reported, 2 usage or load
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xtenergy/internal/analyzers"
	"xtenergy/internal/cli"
)

var list = flag.Bool("list", false, "list the analyzers and exit")

func main() { cli.Main("xanalyze", run) }

func run(ctx context.Context) (int, error) {
	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	pkgs, err := analyzers.LoadContext(ctx, ".", flag.Args()...)
	if err != nil {
		return 0, err
	}

	findings := 0
	for _, pkg := range pkgs {
		pass := &analyzers.Pass{Pkg: pkg}
		for _, a := range analyzers.All() {
			for _, d := range a.Run(pass) {
				fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Msg)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "xanalyze: %d finding(s)\n", findings)
		return 1, nil
	}
	return 0, nil
}
