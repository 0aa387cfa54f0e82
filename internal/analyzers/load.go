package analyzers

// Package loading without golang.org/x/tools/go/packages: `go list
// -export -deps` resolves the import graph and compiles export data
// into the build cache, and the gc importer reads dependency types from
// those files while the target packages themselves are parsed and
// type-checked from source. Works fully offline — the only external
// process is the go tool itself.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// LoadContext lists, parses, and type-checks the packages matching
// patterns in dir (the module root or any directory inside it). Test
// files are not included — the invariants under analysis are
// production-code properties. Cancelling ctx kills the go tool
// subprocess (the one long leg of a load) and aborts the type-check
// between packages.
func LoadContext(ctx context.Context, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analyzers: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listEntry
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analyzers: go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		// A pattern naming a missing directory or package, or a
		// package go list cannot load, comes back as an entry carrying
		// an Error. Skipping it would read as a clean result.
		if !e.DepOnly && e.Error != nil {
			return nil, fmt.Errorf("analyzers: %s: %s", e.ImportPath, e.Error.Err)
		}
		if !e.DepOnly && !e.Incomplete && len(e.GoFiles) > 0 {
			targets = append(targets, e)
		}
	}

	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analyzers: no export data for %q", path)
		}
		return os.Open(f)
	}

	var out []*Package
	for _, e := range targets {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("analyzers: load cancelled: %w", cerr)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analyzers: %v", err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{
			Importer: importer.ForCompiler(fset, "gc", lookup),
			Error:    func(error) {}, // collect what we can; first error returned below
		}
		tpkg, err := conf.Check(e.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analyzers: typecheck %s: %v", e.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath: e.ImportPath,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return out, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// isIssPackage gates the internal/iss-specific analyzers so synthetic
// test packages under other module paths participate too.
func isIssPackage(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "internal/iss")
}
