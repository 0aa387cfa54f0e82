package xtenergy_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// oracleDirective marks a function that no binary links but that tests
// of other packages compare against. It names the tests that use it:
//
//	//xtenergy:oracle FuzzUninitDifferential
const oracleDirective = "//xtenergy:oracle"

// linkArchs are the architectures whose builds make up the link map:
// amd64 links the assembly walkers and the CPUID probe, 386 and arm64
// the portable walker, so no one build links every function.
var linkArchs = []string{"amd64", "386", "arm64"}

// TestInternalFuncsLinked fails on any non-test function under internal/
// that no command, example or perfbench binary links, unless an
// oracle line in its doc comment names the tests that use it. It also
// fails on an oracle line that names no existing test, and on one that
// marks a linked function.
func TestInternalFuncsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary for three architectures")
	}
	linked := map[string]bool{}
	dir := t.TempDir() // each architecture's binaries replace the last's
	for _, arch := range linkArchs {
		env := append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
		// -l keeps every linked function out of line, so each one
		// keeps its own symbol.
		runOutput(t, env, ".", "go", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
		runOutput(t, env, "perfbench", "go", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "perfbench"), ".")
		bins, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bins {
			out := runOutput(t, env, ".", "go", "tool", "nm", filepath.Join(dir, b.Name()))
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				// "<addr> <type> <name>"; a generic instance's name has spaces.
				f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
				if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "xtenergy/internal/") {
					linked[stripTypeArgs(f[2])] = true
				}
			}
		}
	}

	tests := testFuncNames(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := "xtenergy/" + filepath.ToSlash(filepath.Dir(path)) + "."
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sym := pkg + funcSymbol(fd)
			isLinked := linked[sym]
			if fd.Name.Name == "init" && fd.Recv == nil {
				isLinked = linked[pkg+"init"] || linked[pkg+"init.0"]
			}
			oracles := oracleTests(fd)
			where := fset.Position(fd.Pos())
			for _, name := range oracles {
				if !tests[name] {
					t.Errorf("%s: %s names %q, which is no Test, Fuzz or Benchmark function", where, oracleDirective, name)
				}
			}
			switch {
			case isLinked && oracles != nil:
				t.Errorf("%s: %s is linked; drop its %s line", where, sym, oracleDirective)
			case !isLinked && oracles == nil:
				t.Errorf("%s: no binary links %s: delete it, move it into a _test.go file, or mark the tests that compare against it with %s", where, sym, oracleDirective)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runOutput runs name with args in dir and returns its standard output.
func runOutput(t *testing.T, env []string, dir string, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Env = dir, env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// stripTypeArgs drops the bracketed type arguments of a generic
// instance's symbol, so "resolve[go.shape.int]" reads "resolve".
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcSymbol is the linker's name for fd within its package:
// "F", "T.M" or "(*T).M".
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// oracleTests returns the test names on fd's oracle lines, or nil when
// it has none.
func oracleTests(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var names []string
	for _, c := range fd.Doc.List {
		if c.Text != oracleDirective && !strings.HasPrefix(c.Text, oracleDirective+" ") {
			continue
		}
		fields := strings.Fields(c.Text[len(oracleDirective):])
		if len(fields) == 0 {
			fields = []string{""} // reported as naming no test
		}
		names = append(names, fields...)
	}
	return names
}

// testFuncNames returns the Test, Fuzz and Benchmark functions declared
// in the module's _test.go files.
func testFuncNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				n := fd.Name.Name
				if strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Benchmark") {
					names[n] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
