// Local may-taint: which variables of one function body may hold a
// value derived from a client-chosen source. noalloc's rootedness
// (storage reached from a pointer receiver, a pointer parameter or a
// sync.Pool), aliasleak's store-resident designs and scratchescape's
// pooled scratch slices are the same question asked from different
// sources, so they share this one fixpoint.
//
// Two neighbouring analyses are deliberately not expressed here. The
// concurrency walk's freshness ("defined in this function from a
// composite literal or new") is a must-question, and the write-effect
// engine's root classes (receiver, parameter, fresh, shared) form a
// product lattice; folding either in would make the engine branch on
// its caller.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Taint is a local may-taint analysis over one function body. Taint
// enters at the client's sources and at seeded variables, flows
// through `=`, `:=`, `var` and `range` bindings of local variables
// (a multi-value bind taints every variable it binds), and follows
// field selection, indexing, reslicing, `*`, type assertions,
// conversions and append's first operand. Taking an address follows
// the addressed path whatever the value types along it: &d.Cells[0]
// points into d even though a copied Cell would not.
type Taint struct {
	Info *types.Info
	// Source reports whether e is tainted in its own right: a
	// (*sync.Pool).Get, a scratch slice field, a call on a tainted
	// operand. Nil means no sources beyond the seeds.
	Source func(e ast.Expr) bool
	// Elems reports whether indexing or ranging over e yields tainted
	// elements although e itself is not tainted (a store-held map).
	Elems func(e ast.Expr) bool
	// Stop reports whether a call's result is clean whatever its
	// operands (a Clone()).
	Stop func(call *ast.CallExpr) bool
	// Carries reports whether a value of type t can carry the taint at
	// all; nil means every type can.
	Carries func(t types.Type) bool

	vars map[*types.Var]bool
}

// Seed marks v tainted on entry.
func (t *Taint) Seed(v *types.Var) {
	if t.vars == nil {
		t.vars = make(map[*types.Var]bool)
	}
	t.vars[v] = true
}

// Solve runs the binding fixpoint over body. Bindings are
// flow-insensitive: a variable tainted anywhere in body is tainted
// everywhere.
func (t *Taint) Solve(body ast.Node) {
	for changed := true; changed; {
		changed = false
		bind := func(lhs ast.Expr, tainted bool) {
			if v := t.bindable(lhs); v != nil && tainted && !t.vars[v] {
				t.Seed(v)
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					bind(lhs, t.Tainted(paired(s.Rhs, len(s.Lhs), i)))
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					bind(name, t.Tainted(paired(s.Values, len(s.Names), i)))
				}
			case *ast.RangeStmt:
				over := t.Tainted(s.X) || t.elems(s.X)
				bind(s.Key, over)
				bind(s.Value, over)
			}
			return true
		})
	}
}

// paired matches the i-th of n bound names with its value: one to one
// for parallel binds, the single value for a multi-value bind (a call,
// map index, type assertion or receive), nil otherwise.
func paired(values []ast.Expr, n, i int) ast.Expr {
	switch len(values) {
	case n:
		return values[i]
	case 1:
		return values[0]
	}
	return nil
}

// bindable resolves a binding target to the local variable it names,
// or nil: fields and package-level variables hold values beyond this
// body, which a local analysis cannot follow.
func (t *Taint) bindable(lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v := LocalVar(t.Info, id)
	if v == nil || v.IsField() || IsPkgLevel(v) {
		return nil
	}
	return v
}

func (t *Taint) elems(e ast.Expr) bool { return t.Elems != nil && t.Elems(e) }

// Tainted reports whether e may denote a tainted value.
func (t *Taint) Tainted(e ast.Expr) bool { return t.expr(e, true) }

// expr is Tainted with the type gate optional: below an address-of,
// the path's value types do not gate (gated is false).
func (t *Taint) expr(e ast.Expr, gated bool) bool {
	if e == nil {
		return false
	}
	if gated && t.Carries != nil {
		if ty := t.Info.TypeOf(e); ty != nil && !t.Carries(ty) {
			return false
		}
	}
	if call, ok := e.(*ast.CallExpr); ok && t.Stop != nil && t.Stop(call) {
		return false
	}
	if t.Source != nil && t.Source(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		return t.vars[LocalVar(t.Info, x)]
	case *ast.ParenExpr:
		return t.expr(x.X, gated)
	case *ast.SelectorExpr:
		return t.expr(x.X, gated)
	case *ast.StarExpr:
		return t.expr(x.X, gated)
	case *ast.SliceExpr:
		return t.expr(x.X, gated)
	case *ast.IndexExpr:
		return t.elems(x.X) || t.expr(x.X, gated)
	case *ast.UnaryExpr:
		return t.expr(x.X, gated && x.Op != token.AND)
	case *ast.TypeAssertExpr:
		return t.expr(x.X, true)
	case *ast.CallExpr:
		if tv, ok := t.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return t.expr(x.Args[0], true)
		}
		if isBuiltinCall(t.Info, x, "append") && len(x.Args) > 0 {
			return t.expr(x.Args[0], true)
		}
	}
	return false
}
