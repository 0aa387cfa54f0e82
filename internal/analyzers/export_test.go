package analyzers

import (
	"bytes"
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
)

// CheckSource type-checks synthetic source files under the given import
// path against an importer fed by a previously loaded module — the
// negative-test harness, so analyzer tests can exercise violations
// without planting them in the real tree.
func CheckSource(pkgPath string, srcs map[string]string, exportsFrom string) (*Package, error) {
	args := []string{"list", "-e", "-json", "-export", "-deps", "std", "./..."}
	cmd := exec.Command("go", args...)
	cmd.Dir = exportsFrom
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analyzers: go list std: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
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
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analyzers: no export data for %q", path)
		}
		return os.Open(f)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %v", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: typecheck %s: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// HotPathFuncs returns the names of the functions in f carrying the
// hotpath directive, so tests can assert the per-retire core stays
// annotated.
func HotPathFuncs(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		if fd, isFunc := decl.(*ast.FuncDecl); isFunc && hasHotPathDirective(fd) {
			names = append(names, fd.Name.Name)
		}
	}
	return names
}
