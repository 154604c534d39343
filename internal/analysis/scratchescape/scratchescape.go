// Package scratchescape enforces the pooled scratch-buffer ownership
// rule of internal/mgl/scratch.go: slices handed out by the scratch
// pool (reps, chain, moves, ...) are valid only until the evaluation
// returns its scratch to the pool, so they must never be aliased past
// the evaluation boundary. The legal hand-off is the three-stage copy
// chain sc.moves -> sc.bestMoves -> caller storage, each step an
// append(dst[:0], src...) copy.
//
// A "scratch type" is any struct type named scratch, or any type whose
// doc comment contains the marker mclegal:scratch. Within functions of
// a package declaring such a type, the analyzer taints values derived
// from scratch slice fields and reports when a tainted value
//
//   - is stored through a pointer, into a package-level variable, or
//     into a field/element reachable outside the function (storing back
//     into the scratch itself, or into a function-local value struct,
//     is fine);
//   - is sent on a channel;
//   - is returned from an exported function or method (unexported
//     helpers returning scratch-owned slices are the intra-boundary
//     idiom: "the returned slice is owned by sc");
//   - is appended as an element into another container.
//
// Spread copies (append(dst[:0], buf...)) never alias and are always
// accepted. Suppress deliberate violations with //mclegal:escape <why>.
package scratchescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mclegal/internal/analysis/framework"
)

// Analyzer is the scratchescape check.
var Analyzer = &framework.Analyzer{
	Name:      "scratchescape",
	Doc:       "flag pooled scratch-buffer slices escaping the evaluation boundary (suppress with //mclegal:escape)",
	Run:       run,
	Directive: "escape",
	Example:   "//mclegal:escape the slice is copied before the pool reclaims it; see the append below",
}

func run(pass *framework.Pass) error {
	scratchTypes := findScratchTypes(pass)
	if len(scratchTypes) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd, scratchTypes)
			}
		}
	}
	return nil
}

// findScratchTypes collects the pooled scratch type objects of the
// package: structs named "scratch" or marked with mclegal:scratch in
// their doc comment.
func findScratchTypes(pass *framework.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					continue
				}
				marked := ts.Name.Name == "scratch" ||
					(ts.Doc != nil && strings.Contains(ts.Doc.Text(), "mclegal:scratch")) ||
					(gd.Doc != nil && strings.Contains(gd.Doc.Text(), "mclegal:scratch"))
				if !marked {
					continue
				}
				if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

type checker struct {
	pass    *framework.Pass
	scratch map[types.Object]bool
	fn      *ast.FuncDecl
	taint   *framework.Taint
	funcLit [][2]token.Pos
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, scratchTypes map[types.Object]bool) {
	c := &checker{pass: pass, scratch: scratchTypes, fn: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.funcLit = append(c.funcLit, [2]token.Pos{fl.Body.Pos(), fl.Body.End()})
		}
		return true
	})
	// Values derived from a scratch slice field alias the pooled
	// buffer, as long as their type can hold a reference at all.
	c.taint = &framework.Taint{
		Info: pass.TypesInfo,
		Source: func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			return ok && c.isScratchSliceField(sel)
		},
		Carries: holdsReference,
	}
	c.taint.Solve(fd.Body)
	c.report()
}

// holdsReference reports whether a value of type t can share memory
// with a scratch buffer. A copied element of plain values (a move, an
// int) cannot.
func holdsReference(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return holdsReference(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsReference(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return true
}

// report walks the function flagging every escape of a tainted value.
func (c *checker) report() {
	pass := c.pass
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if c.taint.Tainted(rhs) && c.escapingLHS(n.Lhs[i]) && !pass.Suppressed("escape", n.Pos()) {
					pass.Reportf(n.Pos(),
						"scratch buffer %s is aliased past the evaluation boundary by this store; copy it with append(dst[:0], src...) (three-stage ownership rule, internal/mgl/scratch.go)",
						types.ExprString(rhs))
				}
			}
		case *ast.SendStmt:
			if c.taint.Tainted(n.Value) && !pass.Suppressed("escape", n.Pos()) {
				pass.Reportf(n.Pos(),
					"scratch buffer %s sent on a channel escapes the evaluation boundary; send a copy instead",
					types.ExprString(n.Value))
			}
		case *ast.ReturnStmt:
			if !c.fn.Name.IsExported() || c.insideFuncLit(n.Pos()) {
				return true
			}
			for _, res := range n.Results {
				if c.taint.Tainted(res) && !pass.Suppressed("escape", n.Pos()) {
					pass.Reportf(n.Pos(),
						"scratch buffer %s returned from exported %s escapes the evaluation boundary; return a copy",
						types.ExprString(res), c.fn.Name.Name)
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || n.Ellipsis != token.NoPos {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
				return true
			}
			for _, arg := range n.Args[1:] {
				if c.taint.Tainted(arg) && !pass.Suppressed("escape", n.Pos()) {
					pass.Reportf(n.Pos(),
						"scratch buffer %s appended as an element aliases it into another container; append a copy or spread with ...",
						types.ExprString(arg))
				}
			}
		}
		return true
	})
}

// isScratchSliceField reports whether sel reads a slice-typed field of
// a scratch struct.
func (c *checker) isScratchSliceField(sel *ast.SelectorExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[sel]
	if !ok {
		return false
	}
	if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
		return false
	}
	return c.isScratchType(c.pass.TypesInfo.Types[sel.X].Type)
}

func (c *checker) isScratchType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.scratch[named.Obj()]
}

// escapingLHS reports whether storing into lhs publishes the value
// outside the current function.
func (c *checker) escapingLHS(lhs ast.Expr) bool {
	lhs = ast.Unparen(lhs)
	// Storing back into the scratch itself is the idiom (sc.chain =
	// chain after growth), never an escape.
	if c.scratchRooted(lhs) {
		return false
	}
	info := c.pass.TypesInfo
	switch l := lhs.(type) {
	case *ast.Ident:
		return framework.IsPkgLevel(framework.LocalVar(info, l))
	case *ast.StarExpr:
		return true
	case *ast.SelectorExpr, *ast.IndexExpr:
		root := rootIdent(lhs)
		if root == nil {
			return true
		}
		v := framework.LocalVar(info, root)
		if v == nil || framework.IsPkgLevel(v) {
			return true
		}
		// A store through a pointer-typed root reaches memory the
		// caller can see; a field of a function-local value struct
		// cannot outlive the frame without a further (checked) store.
		_, isPtr := v.Type().Underlying().(*types.Pointer)
		return isPtr
	}
	return true
}

// scratchRooted reports whether the selector/index chain of e passes
// through a scratch-typed base.
func (c *checker) scratchRooted(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if c.isScratchType(c.pass.TypesInfo.Types[x.X].Type) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

func (c *checker) insideFuncLit(pos token.Pos) bool {
	for _, r := range c.funcLit {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// rootIdent walks a selector/index/slice/deref chain to its base
// identifier (nil if the base is not an identifier).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
