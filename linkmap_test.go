package xtenergy_test

import (
	"bufio"
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xtenergy/internal/analyzers"
)

// oracleDirective marks a function that no binary links, or a field
// that no non-test code writes, but that tests of other packages
// compare against. It names the tests that use it:
//
//	//xtenergy:oracle TestCRC32Correct
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
			oracles := oracleTests(fd.Doc)
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

// TestInternalFieldsWritten fails on any exported field of an exported
// struct type under internal/ that no non-test code writes, unless an
// oracle line in its doc comment names the tests that set it. A write
// is a keyed or positional composite literal (an elided &T{} element
// too), an assignment or inc/dec of the field or of an element indexed
// through it, or taking its address; a field with a json tag counts as
// written by decoding. The module's non-test packages and perfbench are
// type-checked once per link architecture, so code behind build
// constraints counts. Like TestInternalFuncsLinked, it also fails on an
// oracle line that names no existing test, and on one that marks a
// written field.
func TestInternalFieldsWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module for three architectures")
	}
	fields := map[string]fieldDecl{} // by fieldKey
	written := map[string]bool{}
	for _, arch := range linkArchs {
		t.Setenv("GOARCH", arch)
		t.Setenv("CGO_ENABLED", "0")
		for _, dir := range []string{".", "perfbench"} {
			pkgs, err := analyzers.LoadContext(context.Background(), dir, "./...")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				for _, f := range p.Files {
					if strings.HasPrefix(p.PkgPath, "xtenergy/internal/") {
						exportedFields(p, f, fields)
					}
					ast.Inspect(f, func(n ast.Node) bool {
						markWrites(p.Info, n, written)
						return true
					})
				}
			}
		}
	}

	tests := testFuncNames(t)
	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		f := fields[key]
		for _, name := range f.oracles {
			if !tests[name] {
				t.Errorf("%s: %s names %q, which is no Test, Fuzz or Benchmark function", f.where, oracleDirective, name)
			}
		}
		isWritten := written[key] || f.jsonTagged
		switch {
		case isWritten && f.oracles != nil:
			t.Errorf("%s: non-test code writes %s; drop its %s line", f.where, key, oracleDirective)
		case !isWritten && f.oracles == nil:
			t.Errorf("%s: no non-test code writes %s: delete it, move what sets it into the tests, or mark the tests that set it with %s", f.where, key, oracleDirective)
		}
	}
}

// fieldDecl is one exported field of an exported struct type.
type fieldDecl struct {
	where   token.Position
	oracles []string
	// jsonTagged fields count as written by encoding/json's decoding.
	jsonTagged bool
}

// exportedFields adds the exported fields of f's exported struct types
// to fields, by fieldKey.
func exportedFields(p *analyzers.Package, f *ast.File, fields map[string]fieldDecl) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			for _, fl := range st.Fields.List {
				var tag string
				if fl.Tag != nil {
					tag, _ = strconv.Unquote(fl.Tag.Value)
				}
				name, tagged := reflect.StructTag(tag).Lookup("json")
				for _, id := range fl.Names {
					if id.IsExported() {
						fields[p.PkgPath+"."+ts.Name.Name+"."+id.Name] = fieldDecl{
							p.Fset.Position(id.Pos()), oracleTests(fl.Doc), tagged && name != "-",
						}
					}
				}
			}
		}
	}
}

// markWrites marks the fields that node n writes.
func markWrites(info *types.Info, n ast.Node, written map[string]bool) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		typ := info.Types[n].Type
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem() // an elided &T{}
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				written[fieldKey(typ, kv.Key.(*ast.Ident).Name)] = true
			} else {
				written[fieldKey(typ, st.Field(i).Name())] = true
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			markFieldWrites(info, lhs, written)
		}
	case *ast.IncDecStmt:
		markFieldWrites(info, n.X, written)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			markFieldWrites(info, n.X, written)
		}
	}
}

// markFieldWrites marks the fields an assignment to lhs writes: every
// field selected on the way down to the assigned variable, through
// index expressions, until a selection goes through a pointer.
func markFieldWrites(info *types.Info, lhs ast.Expr, written map[string]bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			// Each index steps one field deeper; a promoted field
			// writes the embedded fields it is reached through.
			typ := sel.Recv()
			for _, i := range sel.Index() {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return
				}
				written[fieldKey(typ, st.Field(i).Name())] = true
				typ = st.Field(i).Type()
			}
			if sel.Indirect() {
				return
			}
			lhs = e.X
		default:
			return
		}
	}
}

// fieldKey names field name of the struct type typ as
// "<package path>.<type>.<field>"; a field of an unnamed struct type
// gets a key no declared field has.
func fieldKey(typ types.Type, name string) string {
	named, ok := types.Unalias(typ).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "." + name
	}
	obj := named.Origin().Obj()
	return obj.Pkg().Path() + "." + obj.Name() + "." + name
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

// oracleTests returns the test names on the oracle lines of a doc
// comment, or nil when it has none.
func oracleTests(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var names []string
	for _, c := range doc.List {
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
