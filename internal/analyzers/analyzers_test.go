package analyzers_test

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xtenergy/internal/analyzers"
)

// moduleRoot finds the repository root from this test file's location.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func runAll(pkgs []*analyzers.Package) []analyzers.Diagnostic {
	var out []analyzers.Diagnostic
	for _, pkg := range pkgs {
		pass := &analyzers.Pass{Pkg: pkg}
		for _, a := range analyzers.All() {
			out = append(out, a.Run(pass)...)
		}
	}
	return out
}

func runOne(t *testing.T, a *analyzers.Analyzer, pkg *analyzers.Package) []analyzers.Diagnostic {
	t.Helper()
	return a.Run(&analyzers.Pass{Pkg: pkg})
}

func find(all []*analyzers.Analyzer, name string) *analyzers.Analyzer {
	for _, a := range all {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// TestRepoIsClean is the project gate: the full analyzer suite over the
// whole module must report nothing. Any finding here is a real invariant
// violation in production code.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := analyzers.LoadContext(context.Background(), moduleRoot(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("Load returned only %d packages; loader is broken", len(pkgs))
	}
	for _, d := range runAll(pkgs) {
		t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Msg)
	}
}

// TestHotPathDirectivesPresent guards the annotation set itself: the
// per-retire core (ISS step, trace pricing) must stay marked, or the
// hotpath analyzer silently stops covering it.
func TestHotPathDirectivesPresent(t *testing.T) {
	pkgs, err := analyzers.LoadContext(context.Background(), moduleRoot(t), "./internal/iss", "./internal/rtlpower")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	marked := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, name := range analyzers.HotPathFuncs(f) {
				marked[pkg.PkgPath+"."+name] = true
			}
		}
	}
	for _, want := range []string{
		"xtenergy/internal/iss.step",
		"xtenergy/internal/iss.loopBack",
		"xtenergy/internal/iss.alu",
		"xtenergy/internal/rtlpower.foldChunk",
		"xtenergy/internal/rtlpower.simulateNets",
	} {
		if !marked[want] {
			t.Errorf("expected //xtenergy:hotpath on %s; have %v", want, marked)
		}
	}
}

func TestIssFaultFlagsPlainErrors(t *testing.T) {
	pkg, err := analyzers.CheckSource("example.com/internal/iss", map[string]string{
		"bad.go": `package iss

import (
	"errors"
	"fmt"
)

func a() error { return errors.New("plain") }

func b() error { return fmt.Errorf("pc %d out of range", 7) }

func c(cause error) error { return fmt.Errorf("wrapping: %w", cause) }

type Program struct{}

func (p *Program) Validate() error { return fmt.Errorf("bad program") }
`,
	}, moduleRoot(t))
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	diags := runOne(t, find(analyzers.All(), "issfault"), pkg)
	if len(diags) != 2 {
		t.Fatalf("want 2 findings (errors.New in a, fmt.Errorf in b), got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "errors.New") {
		t.Errorf("first finding should be the errors.New: %v", diags[0])
	}
	if !strings.Contains(diags[1].Msg, "fmt.Errorf") {
		t.Errorf("second finding should be the bare fmt.Errorf: %v", diags[1])
	}
}

func TestIssFaultIgnoresOtherPackages(t *testing.T) {
	pkg, err := analyzers.CheckSource("example.com/internal/other", map[string]string{
		"ok.go": `package other

import "errors"

func a() error { return errors.New("fine outside iss") }
`,
	}, moduleRoot(t))
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if diags := runOne(t, find(analyzers.All(), "issfault"), pkg); len(diags) != 0 {
		t.Fatalf("issfault must only apply to internal/iss, got %v", diags)
	}
}

func TestHotPathFlagsFmtCalls(t *testing.T) {
	pkg, err := analyzers.CheckSource("example.com/internal/hot", map[string]string{
		"hot.go": `package hot

import "fmt"

// step is the per-retire core.
//
//xtenergy:hotpath
func step(pc int) error {
	if pc < 0 {
		return fmt.Errorf("pc %d negative", pc)
	}
	return nil
}

// cold formats freely.
func cold(pc int) string { return fmt.Sprintf("%d", pc) }
`,
	}, moduleRoot(t))
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	diags := runOne(t, find(analyzers.All(), "hotpath"), pkg)
	if len(diags) != 1 {
		t.Fatalf("want exactly the fmt.Errorf in step flagged, got %v", diags)
	}
	if !strings.Contains(diags[0].Msg, "step") || !strings.Contains(diags[0].Msg, "fmt.Errorf") {
		t.Errorf("finding should name the function and callee: %v", diags[0])
	}
}

func TestExecTableReportsMissingOps(t *testing.T) {
	pkg, err := analyzers.CheckSource("example.com/internal/iss", map[string]string{
		"exec.go": `package iss

import "xtenergy/internal/isa"

type execFn func()

var execTable = func() [isa.NumOpcodes]execFn {
	var t [isa.NumOpcodes]execFn
	t[isa.OpADD] = func() {}
	t[isa.OpSUB] = func() {}
	return t
}()
`,
	}, moduleRoot(t))
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	diags := runOne(t, find(analyzers.All(), "exectable"), pkg)
	if len(diags) != 1 {
		t.Fatalf("want one completeness finding, got %v", diags)
	}
	msg := diags[0].Msg
	for _, op := range []string{"OpMOVI", "OpBNEZ", "OpL32I"} {
		if !strings.Contains(msg, op) {
			t.Errorf("missing-op list should include %s: %s", op, msg)
		}
	}
	for _, op := range []string{"OpADD,", "OpSUB,", "OpInvalid", "OpCUSTOM"} {
		if strings.Contains(msg+",", op) {
			t.Errorf("covered/exempt opcode %s must not be reported: %s", op, msg)
		}
	}
}
