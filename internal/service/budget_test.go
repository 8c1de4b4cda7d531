package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// derivers are the context package's functions that derive a context
// with its own deadline or cancellation.
var derivers = map[string]bool{
	"WithCancel": true, "WithCancelCause": true,
	"WithDeadline": true, "WithDeadlineCause": true,
	"WithTimeout": true, "WithTimeoutCause": true,
	"WithoutCancel": true,
}

// TestOneRequestDeadline keeps a request's deadline in one place: no
// non-test file of the package derives a context anywhere but
// budget.context, so no route arms a second deadline beside its budget
// and no op strips the request's cancellation after its check.
func TestOneRequestDeadline(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inBudget := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := contextImport(f)
		if pkg == "" {
			continue
		}
		for _, decl := range f.Decls {
			allowed := isBudgetContext(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !derivers[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
					return true
				}
				if allowed {
					inBudget++
				} else {
					t.Errorf("%s: context.%s outside budget.context", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if inBudget == 0 {
		t.Error("budget.context derives no context; the scan found nothing to allow")
	}
}

// contextImport is the name f imports the context package under, "" when
// it does not import it.
func contextImport(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "context" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "context"
		}
	}
	return ""
}

// isBudgetContext reports whether decl is the method budget.context.
func isBudgetContext(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Name.Name != "context" || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	id, ok := fn.Recv.List[0].Type.(*ast.Ident)
	return ok && id.Name == "budget"
}
