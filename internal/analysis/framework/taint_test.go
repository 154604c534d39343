package framework_test

import (
	"go/ast"
	"go/types"
	"testing"

	"mclegal/internal/analysis/framework"
)

// TestTaintRules pins each propagation rule of the shared may-taint
// engine: every argument of yes(...) must be tainted and every argument
// of no(...) clean.
func TestTaintRules(t *testing.T) {
	ld := writeFixtureModule(t, map[string]string{
		"tt/tt.go": `package tt

type T struct {
	p *T
	s []T
	n int
}

func src() *T       { return nil }
func clean(x *T) *T { return x }
func yes(x any)     {}
func no(x any)      {}

var store map[string]*T

func F(seed *T, k string, m map[string]*T) {
	a := src()
	yes(a)
	yes(seed.p)  // seeded parameter
	yes(a.p)     // field selection
	yes(a.s[1:]) // reslice
	yes(a.s[0])  // indexing
	yes(*a.p)    // dereference
	no(a.n)      // an int carries nothing
	yes(&a.n)    // the address path ignores its value types
	var v = a.p  // var binding
	yes(v)
	w, ok := any(a).(*T) // conversion, assertion, multi-value bind
	yes(w)
	_ = ok
	g := append(a.s[:0], T{}) // append's first operand
	yes(g)
	no(append([]T(nil), *a)) // only the first operand carries
	for _, e := range a.s {
		yes(e) // range over a tainted value
	}
	for _, e := range store {
		yes(e) // range over a store's elements
	}
	yes(store[k])
	no(m[k])      // a parameter map is no store
	no(clean(a))  // the stop call launders
	no(store)     // the store itself is not tainted
	var late *T
	yes(late) // bindings are flow-insensitive
	late = a
}
`,
	})
	prog, err := framework.LoadProgram(ld, []string{"tt"})
	if err != nil {
		t.Fatal(err)
	}
	pkg := prog.Package("tt")
	info := pkg.Info
	var fd *ast.FuncDecl
	for _, d := range pkg.Files[0].Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "F" {
			fd = f
		}
	}
	calls := func(name string) func(ast.Expr) bool {
		return func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == name
		}
	}
	taint := &framework.Taint{
		Info:   info,
		Source: calls("src"),
		Stop:   func(call *ast.CallExpr) bool { return calls("clean")(call) },
		Elems: func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && id.Name == "store"
		},
		Carries: func(t types.Type) bool {
			_, basic := t.Underlying().(*types.Basic)
			return !basic
		},
	}
	taint.Seed(info.Defs[fd.Type.Params.List[0].Names[0]].(*types.Var))
	taint.Solve(fd.Body)

	checked := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || (id.Name != "yes" && id.Name != "no") {
			return true
		}
		checked++
		arg := call.Args[0]
		if got := taint.Tainted(arg); got != (id.Name == "yes") {
			t.Errorf("%s: Tainted(%s) = %v, want %v",
				prog.Fset().Position(arg.Pos()), types.ExprString(arg), got, !got)
		}
		return true
	})
	if checked != 19 {
		t.Fatalf("checked %d cases, want 19", checked)
	}
}
