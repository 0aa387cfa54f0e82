package analyzers

import (
	"go/ast"
	"strings"
)

// hotPathDirective marks a function as per-retire hot: executed once per
// simulated instruction (ISS step, exec-table entries) or once per trace
// entry (stream pricing). The directive is a comment line in the
// function's doc block.
const hotPathDirective = "//xtenergy:hotpath"

// HotPath forbids fmt and errors calls inside directive-marked
// functions. Both allocate on every call; the predecode refactor exists
// precisely to keep per-retire work allocation-free, and a stray
// fmt.Errorf in a fault branch that the compiler cannot prove cold will
// keep the whole function from staying on the fast path. Only direct
// calls are checked — push error formatting into a cold helper and call
// that instead.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//xtenergy:hotpath functions must not call fmt or errors (allocation per retired instruction)",
	Run:  runHotPath,
}

func runHotPath(p *Pass) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil || !hasHotPathDirective(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				pkgPath, fn, ok := p.calleePkgFunc(call)
				if !ok {
					return true
				}
				if pkgPath == "fmt" || pkgPath == "errors" {
					out = p.diag(out, "hotpath", call.Pos(),
						"hot-path function "+fd.Name.Name+" calls "+pkgPath+"."+fn+": allocates per retired instruction")
				}
				return true
			})
		}
	}
	return out
}

func hasHotPathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotPathDirective) {
			return true
		}
	}
	return false
}
