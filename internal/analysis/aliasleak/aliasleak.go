// Package aliasleak enforces the serving layer's clone boundary
// statically: a store-resident design (internal/serve holds parsed
// designs immutable and shared across concurrent requests) may be read
// freely, but no interior pointer of one may escape the boundary. The
// analyzer taints every value read out of a store — an index or range
// over a field-held (or package-level) map whose element type can
// reach resident state under the internal/analysis/writeloc vocabulary
// — propagates the taint through selectors, indexing, reslicing,
// address-of and derived calls, launders it through Clone() calls, and
// reports four escape channels:
//
//   - returning a tainted value (an interior pointer crosses the
//     function boundary un-cloned);
//   - storing a tainted value into a struct field or package-level
//     variable (the pointer outlives the request);
//   - capturing a tainted value in a go statement (the goroutine may
//     outlive the request's read window);
//   - passing a tainted value to a callee that mutates it (a
//     parameter- or receiver-rooted write effect in the callee's
//     summary), to one whose write set is unprovable, or through a
//     dynamic call.
//
// The last channel is why the module's scoped program loads
// internal/bmark: proving writeDesignBody harmless requires
// bmark.Write's summary, not trust. A justified exception takes
// //mclegal:aliasleak <why> on the flagged line.
package aliasleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/writeloc"
)

// ServeScope lists the packages holding store-resident designs behind
// a clone boundary.
var ServeScope = []string{"internal/serve"}

// Analyzer proves resident-design isolation in the serving layer.
var Analyzer = &framework.Analyzer{
	Name:      "aliasleak",
	Doc:       "forbid interior pointers of store-resident designs from escaping the serve clone boundary via return, field/global store, goroutine capture, or a mutating callee",
	Scope:     ServeScope,
	Directive: "aliasleak",
	Example:   "//mclegal:aliasleak the callee is the store's own eviction hook and holds the lock",
	Program:   findings,
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	effects, vocab, err := writeloc.Effects(prog)
	if err != nil {
		return nil, err
	}
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	c := &checker{cg: cg, effects: effects, vocab: vocab}
	for _, pkg := range prog.Pkgs {
		if !framework.PathMatchesAny(pkg.Path, ServeScope) {
			continue
		}
		c.info = pkg.Info
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					c.taint = c.storeTaint()
					c.taint.Solve(fd.Body)
					c.sinks(fd)
				}
			}
		}
	}
	return c.out, nil
}

// checker screens the serve layer one function at a time: taint is
// set up per function, findings accumulate in out.
type checker struct {
	cg      *framework.CallGraph
	effects map[*framework.Node]*framework.WriteEffects
	vocab   *writeloc.Vocab
	info    *types.Info
	taint   *framework.Taint
	out     []framework.Finding
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.out = append(c.out, framework.Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// storeTaint sets up the taint of one function: values read out of a
// store (indexing or ranging over a store map) and anything derived
// from them, including the result of any call on a tainted operand,
// except through Clone(). Values whose type cannot reach resident
// state are never tainted (len(d.Cells) is just an int).
func (c *checker) storeTaint() *framework.Taint {
	t := &framework.Taint{
		Info:    c.info,
		Elems:   c.isStoreMap,
		Stop:    isClone,
		Carries: c.vocab.Reaches,
	}
	t.Source = func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		recv, args := framework.SplitOperands(c.info, call)
		if t.Tainted(recv) {
			return true
		}
		for _, a := range args {
			if t.Tainted(a) {
				return true
			}
		}
		return false
	}
	return t
}

// isClone recognizes the clone boundary, which launders the value.
func isClone(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}

// isStoreMap recognizes the store itself: a field-held or
// package-level map whose elements reach resident state.
func (c *checker) isStoreMap(e ast.Expr) bool {
	t := c.info.TypeOf(e)
	if t == nil {
		return false
	}
	mt, ok := t.Underlying().(*types.Map)
	if !ok || !c.vocab.Reaches(mt.Elem()) {
		return false
	}
	switch base := e.(type) {
	case *ast.SelectorExpr:
		v, ok := c.info.Uses[base.Sel].(*types.Var)
		return ok && v.IsField()
	case *ast.Ident:
		v, ok := c.info.Uses[base].(*types.Var)
		return ok && framework.IsPkgLevel(v)
	}
	return false
}

// sinks walks the function once with the converged taint set and
// reports every escape channel.
func (c *checker) sinks(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if c.taint.Tainted(r) {
					c.report(r.Pos(), "returns an interior pointer of a store-resident design across the clone boundary; return a Clone() or justify with //mclegal:aliasleak <why>")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				rhs := s.Rhs[0]
				if len(s.Rhs) > 1 {
					rhs = s.Rhs[i]
				}
				if !c.taint.Tainted(rhs) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					if v, ok := c.info.Uses[l.Sel].(*types.Var); ok && v.IsField() {
						c.report(l.Pos(), "stores a resident design pointer into field %s, where it outlives the request; store a Clone() or justify with //mclegal:aliasleak <why>", v.Name())
					}
				case *ast.Ident:
					if v, ok := c.info.Uses[l].(*types.Var); ok && framework.IsPkgLevel(v) {
						c.report(l.Pos(), "stores a resident design pointer into package-level %s, where it outlives the request; store a Clone() or justify with //mclegal:aliasleak <why>", v.Name())
					}
				}
			}
		case *ast.GoStmt:
			c.goSink(s)
			return false // goSink walks the spawned call itself
		case *ast.CallExpr:
			c.callSink(s)
		}
		return true
	})
}

// goSink reports tainted values crossing into a spawned goroutine:
// tainted call arguments, and tainted locals captured by a function
// literal body.
func (c *checker) goSink(g *ast.GoStmt) {
	for _, a := range g.Call.Args {
		if c.taint.Tainted(a) {
			c.report(a.Pos(), "passes a resident design pointer to a goroutine, which may outlive the request's read window; pass a Clone() or justify with //mclegal:aliasleak <why>")
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if _, ok := c.info.Uses[id].(*types.Var); ok && c.taint.Tainted(id) {
				c.report(id.Pos(), "goroutine captures resident design pointer %s, which may outlive the request's read window; capture a Clone() or justify with //mclegal:aliasleak <why>", id.Name)
			}
			return true
		})
	}
}

// callSink screens calls that receive a tainted value: the callee must
// be static, in-program or known-safe external, with a provable write
// set that has no effect rooted at the tainted operand.
func (c *checker) callSink(call *ast.CallExpr) {
	if tv, ok := c.info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		// Conversions pass the value through (the taint tracks that);
		// builtins read or write only what their spelled-out operands
		// already show.
		return
	}
	recv, args := framework.SplitOperands(c.info, call)
	recvTainted := c.taint.Tainted(recv)
	var taintedIdx []int
	for i, a := range args {
		if c.taint.Tainted(a) {
			taintedIdx = append(taintedIdx, i)
		}
	}
	if (!recvTainted && len(taintedIdx) == 0) || isClone(call) {
		return
	}
	fn := c.callee(call)
	if fn == nil {
		if _, isLit := call.Fun.(*ast.FuncLit); isLit {
			return // the literal's body is screened by this same walk
		}
		c.report(call.Pos(), "passes a resident design through a dynamic call, which cannot be proven read-only; clone first or justify with //mclegal:aliasleak <why>")
		return
	}
	node := c.cg.Node(fn)
	if node == nil || node.Decl == nil {
		// External or body-less callee: only the known-safe externals
		// may see resident state.
		if muts, known := c.vocab.External(fn); known {
			for _, m := range muts {
				for _, ti := range taintedIdx {
					if m == ti {
						c.report(args[ti].Pos(), "passes a resident design to %s, which mutates its argument; resident designs are immutable — clone first", fn.Name())
					}
				}
			}
			return
		}
		c.report(call.Pos(), "passes a resident design to %s, whose effects are unknown; clone first or justify with //mclegal:aliasleak <why>", calleeName(fn))
		return
	}
	we := c.effects[node]
	if we == nil {
		return
	}
	if len(we.Unknown) > 0 {
		c.report(call.Pos(), "passes a resident design to %s, whose write set is unprovable (%s); clone first or justify with //mclegal:aliasleak <why>", calleeName(fn), we.Unknown[0].What)
		return
	}
	for _, e := range we.Effects {
		switch e.Root {
		case framework.WriteRecv:
			if recvTainted {
				c.report(call.Pos(), "passes a resident design to %s, which writes %s through its receiver; resident designs are immutable — clone first", calleeName(fn), e.Obj.Name())
				return
			}
		case framework.WriteParam:
			for _, ti := range taintedIdx {
				if e.Param == ti {
					c.report(args[ti].Pos(), "passes a resident design to %s, which writes %s through parameter %d; resident designs are immutable — clone first", calleeName(fn), e.Obj.Name(), ti)
					return
				}
			}
		default:
			// WriteFresh is the callee's own storage and WriteShared is
			// package-level/escaped state — neither reaches the callee
			// through the tainted argument being screened here.
		}
	}
}

func (c *checker) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func calleeName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
