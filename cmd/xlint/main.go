// Command xlint statically analyzes XT32+TIE programs: control-flow and
// dataflow diagnostics (uninitialized reads, dead writes, unreachable
// code, guaranteed interlocks, operand validity) and simulation-free
// energy bounds from a fitted macro-model.
//
// Usage:
//
//	xlint -list                     list built-in workloads
//	xlint -w <name>                 analyze a built-in workload
//	xlint <file.s>                  assemble and analyze an assembly file (base ISA)
//	xlint -energy-bounds -w <name>  static per-invocation energy bounds
//	xlint -wcec -w <name>           concrete worst/best-case energy (trip counts inferred)
//	xlint -model fit.json ...       price bounds with a fitted model instead of unit coefficients
//
// Exit status: 0 when the program is clean (notes do not count), 1 when
// any warning- or error-severity finding is reported, 2 on usage or
// internal errors.
//
// The default text mode renders through xpowerd.LintReport, the same
// entry point the xpowerd daemon serves, so `xlint -remote <addr>`
// output is byte-identical to a local run (-remote supports the default
// text mode only).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"xtenergy/internal/cli"
	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/workloads"
	"xtenergy/internal/xlint"
	"xtenergy/internal/xpowerd"
)

var (
	list      = flag.Bool("list", false, "list built-in workloads")
	name      = flag.String("w", "", "analyze the named built-in workload")
	asJSON    = flag.Bool("json", false, "emit findings (and bounds) as JSON")
	energy    = flag.Bool("energy-bounds", false, "compute static per-invocation energy bounds")
	wcec      = flag.Bool("wcec", false, "compute concrete WCEC/BCEC with inferred loop trip counts")
	modelPath = flag.String("model", "", "fitted macro-model JSON for -energy-bounds (default: unit coefficients)")
	notes     = flag.Bool("notes", false, "also print note-severity findings")
	disable   = flag.String("disable", "", "comma-separated finding codes to suppress")
	remote    = flag.String("remote", "", "send the request to a running xpowerd at this address (host:port or unix:<path>; default text mode only)")
	noCache   = flag.Bool("no-cache", false, "bypass the content-addressed artifact cache (default text mode; the json/energy/wcec modes never cache)")
)

func main() { cli.Main("xlint", run) }

func run(ctx context.Context) (int, error) {
	if *list {
		cli.List(workloads.All(), true)
		return 0, nil
	}
	var disabled []string
	if *disable != "" {
		disabled = strings.Split(*disable, ",")
	}
	p, err := cli.ProgramArg(*name)
	if err != nil {
		return 0, err
	}

	if *remote != "" {
		if *asJSON || *energy || *wcec {
			return 0, fmt.Errorf("-remote supports the default text mode only")
		}
		return cli.Remote(ctx, *remote, &xpowerd.Request{
			Op: xpowerd.OpLint, Workload: p.Workload, Source: p.Source, SourceName: p.SourceName,
			Notes: *notes, Disable: disabled, NoCache: *noCache,
		})
	}

	// The plain text mode renders through the daemon-shared entry
	// point; the json/energy/wcec modes keep their richer local flow.
	if !*asJSON && !*energy && !*wcec {
		text, status, err := xpowerd.LintReport(ctx, xpowerd.LintParams{
			Workload: p.Workload, Source: p.Source, SourceName: p.SourceName, Notes: *notes,
			Disable: disabled, NoCache: *noCache,
		})
		if err != nil {
			return 0, err
		}
		fmt.Print(text)
		return status, nil
	}

	proc, prog, err := p.Build()
	if err != nil {
		return 0, err
	}

	var opts []xlint.Option
	if len(disabled) > 0 {
		if err := xlint.ValidateCodes(disabled); err != nil {
			return 0, err
		}
		opts = append(opts, xlint.Disable(disabled...))
	}
	rep := xlint.Analyze(prog, proc, opts...)

	minSev := xlint.SevWarn
	if *notes {
		minSev = xlint.SevNote
	}
	shown := rep.Filter(minSev)

	status := 0
	if rep.Count(xlint.SevWarn) > 0 {
		status = 1
	}

	if *wcec {
		return status, reportWCEC(rep, proc, *modelPath, *asJSON, shown)
	}
	if *energy {
		return status, reportEnergy(rep, proc, *modelPath, *asJSON, shown)
	}
	return status, writeJSON(map[string]any{
		"program":  prog.Name,
		"findings": jsonFindings(shown),
		"clean":    status == 0,
	})
}

// loadModel returns the fitted model at path, or the unit model (every
// coefficient 1.0 pJ) that prices bounds in "weighted events" when no
// fit is supplied.
func loadModel(path string) (*core.MacroModel, string, error) {
	if path == "" {
		m := &core.MacroModel{}
		for i := range m.Coef {
			m.Coef[i] = 1
		}
		return m, "unit", nil
	}
	m, err := core.LoadModel(path)
	if err != nil {
		return nil, "", err
	}
	return m, path, nil
}

func reportEnergy(rep *xlint.Report, proc *procgen.Processor, modelPath string, asJSON bool, shown []xlint.Finding) error {
	model, origin, err := loadModel(modelPath)
	if err != nil {
		return err
	}
	bounds, err := xlint.ComputeBounds(rep.CFG, proc)
	if err != nil {
		return err
	}
	path, pathErr := bounds.PathBounds(model)
	blocks := bounds.BlockEnergy(model)

	if asJSON {
		out := map[string]any{
			"program":  rep.Prog.Name,
			"model":    origin,
			"findings": jsonFindings(shown),
		}
		var bs []map[string]any
		for i, b := range rep.CFG.Blocks {
			bs = append(bs, map[string]any{
				"block": i, "start_pc": b.Start, "end_pc": b.End,
				"reachable": b.Reachable,
				"lo_pj":     blocks[i].Lo, "hi_pj": blocks[i].Hi,
			})
		}
		out["blocks"] = bs
		if pathErr == nil {
			var loops []map[string]any
			for _, l := range path.Loops {
				loops = append(loops, map[string]any{
					"from_pc": l.FromPC, "header_pc": l.HeaderPC,
					"per_iter_lo_pj": l.PerIter.Lo, "per_iter_hi_pj": l.PerIter.Hi,
				})
			}
			out["acyclic_lo_pj"] = path.Acyclic.Lo
			out["acyclic_hi_pj"] = path.Acyclic.Hi
			out["loops"] = loops
		} else {
			out["path_error"] = pathErr.Error()
		}
		return writeJSON(out)
	}

	fmt.Printf("%s: static energy bounds (model: %s)\n", rep.Prog.Name, origin)
	for i, b := range rep.CFG.Blocks {
		mark := ""
		if !b.Reachable {
			mark = "  (unreachable)"
		}
		fmt.Printf("  block %2d  pc [%4d,%4d)  %12.2f .. %-12.2f pJ/exec%s\n",
			i, b.Start, b.End, blocks[i].Lo, blocks[i].Hi, mark)
	}
	if pathErr != nil {
		fmt.Printf("  per-invocation bound: %v\n", pathErr)
		return nil
	}
	fmt.Printf("  per-invocation: %.2f .. %.2f pJ on acyclic paths\n",
		path.Acyclic.Lo, path.Acyclic.Hi)
	for _, l := range path.Loops {
		fmt.Printf("    + n(pc %d -> pc %d) * [%.2f .. %.2f] pJ per iteration\n",
			l.FromPC, l.HeaderPC, l.PerIter.Lo, l.PerIter.Hi)
	}
	return nil
}

func reportWCEC(rep *xlint.Report, proc *procgen.Processor, modelPath string, asJSON bool, shown []xlint.Finding) error {
	model, origin, err := loadModel(modelPath)
	if err != nil {
		return err
	}
	w, err := xlint.ComputeWCEC(rep.CFG, rep.Abs, proc, model)
	if err != nil {
		return err
	}

	if asJSON {
		var terms []map[string]any
		for _, t := range w.Terms {
			terms = append(terms, map[string]any{
				"from_pc": t.FromPC, "header_pc": t.HeaderPC,
				"per_iter_lo_pj": finiteOrNull(t.PerIter.Lo), "per_iter_hi_pj": finiteOrNull(t.PerIter.Hi),
				"trips_lo": finiteOrNull(t.TripLo), "trips_hi": finiteOrNull(t.TripHi),
				"source": t.Source,
			})
		}
		return writeJSON(map[string]any{
			"program":       rep.Prog.Name,
			"model":         origin,
			"findings":      jsonFindings(shown),
			"acyclic_lo_pj": w.Acyclic.Lo,
			"acyclic_hi_pj": w.Acyclic.Hi,
			"loops":         terms,
			"bcec_pj":       finiteOrNull(w.BCEC),
			"wcec_pj":       finiteOrNull(w.WCEC),
			"bounded":       w.Bounded,
		})
	}

	fmt.Printf("%s: worst-case energy (model: %s)\n", rep.Prog.Name, origin)
	fmt.Printf("  acyclic: %.2f .. %.2f pJ\n", w.Acyclic.Lo, w.Acyclic.Hi)
	for _, t := range w.Terms {
		fmt.Printf("    loop pc %d -> pc %d: trips [%g, %g] (%s) x [%.2f .. %.2f] pJ/iter\n",
			t.FromPC, t.HeaderPC, t.TripLo, t.TripHi, t.Source, t.PerIter.Lo, t.PerIter.Hi)
	}
	if w.Bounded {
		fmt.Printf("  BCEC %.2f pJ  <=  energy  <=  WCEC %.2f pJ\n", w.BCEC, w.WCEC)
	} else {
		fmt.Printf("  unbounded: BCEC %g pJ, WCEC %g pJ\n", w.BCEC, w.WCEC)
	}
	return nil
}

// finiteOrNull keeps unbounded quantities JSON-encodable: trip counts
// and energy bounds are +Inf for loops the interpreter cannot bound,
// and encoding/json rejects non-finite floats. JSON null means
// "unbounded"; the "bounded" field says so explicitly.
func finiteOrNull(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return v
}

func jsonFindings(fs []xlint.Finding) []map[string]any {
	out := []map[string]any{}
	for _, f := range fs {
		out = append(out, map[string]any{
			"code": f.Code, "severity": f.Sev.String(),
			"pc": f.PC, "line": f.Line, "reg": f.Reg, "msg": f.Msg,
		})
	}
	return out
}

func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
