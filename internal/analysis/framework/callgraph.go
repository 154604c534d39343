// Call-graph construction. The graph is type-aware and conservative:
//
//   - Static calls (package functions, methods called on concrete
//     receivers) produce one EdgeStatic to the callee, across package
//     boundaries — the loader guarantees every in-program package
//     shares one types.Object universe, so a *types.Func seen at a
//     call site in package A is the same object as the one declared in
//     package B.
//   - Interface method calls produce one EdgeInterface per concrete
//     in-program type whose method set satisfies the interface (the
//     sound over-approximation: any of them may be the dynamic
//     callee).
//   - Calls of function values (parameters, fields, channel receives)
//     produce an EdgeDynamic with a nil Callee: the analyzer decides
//     how pessimistic to be. Calls of a local variable that is bound
//     exactly once to a function literal in the same function are
//     resolved like static calls would be: the literal's body already
//     contributes its facts to the enclosing function's summary, so
//     such edges are omitted entirely.
//
// Function literals are attributed to their enclosing declared
// function: calls inside a literal become edges out of the declaration
// that lexically contains it. Generic functions and methods are keyed
// by their Origin, so instantiations collapse onto one node.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a known function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is an interface method call, one edge per
	// in-program implementation.
	EdgeInterface
	// EdgeDynamic is a call of a function value whose target is
	// unknown; Callee is nil.
	EdgeDynamic
)

// A Node is one function in the call graph. Decl and Pkg are nil for
// functions outside the program (header-only dependencies such as
// sort.Search), which have in-edges but no analyzable body.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []*Edge
	In   []*Edge

	summary *Summary
	conc    *ConcSummary
}

// An Edge is one (conservative) call.
type Edge struct {
	Caller *Node
	Callee *Node // nil for EdgeDynamic
	Site   *ast.CallExpr
	Kind   EdgeKind
}

// A CallGraph holds every declared function of the program plus
// external nodes for called dependencies.
type CallGraph struct {
	prog  *Program
	nodes map[*types.Func]*Node
	// sorted holds every node by full name, fixed once the graph is
	// built.
	sorted []*Node
}

// Node returns the graph node for fn (its Origin, for instantiated
// generics), or nil if fn was never declared in or called from the
// program.
func (g *CallGraph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node in a deterministic order (by full name).
// The slice is shared; callers must not modify it.
func (g *CallGraph) Nodes() []*Node { return g.sorted }

// External reports whether the node has no analyzable body in the
// program.
func (n *Node) External() bool { return n.Decl == nil }

func (g *CallGraph) node(fn *types.Func) *Node {
	fn = fn.Origin()
	n, ok := g.nodes[fn]
	if !ok {
		n = &Node{Func: fn}
		g.nodes[fn] = n
	}
	return n
}

func buildCallGraph(p *Program) (*CallGraph, error) {
	g := &CallGraph{prog: p, nodes: make(map[*types.Func]*Node)}

	// Pass 1: a node per declared function, so interface resolution
	// can enumerate implementations.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := g.node(fn)
				n.Decl = fd
				n.Pkg = pkg
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.addEdges(pkg, g.node(fn), fd.Body)
			}
		}
	}

	g.sorted = make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.sorted = append(g.sorted, n)
	}
	sort.Slice(g.sorted, func(i, j int) bool {
		return g.sorted[i].Func.FullName() < g.sorted[j].Func.FullName()
	})
	return g, nil
}

// addEdges walks body (including nested function literals) and records
// one edge per call expression out of caller.
func (g *CallGraph) addEdges(pkg *Package, caller *Node, body *ast.BlockStmt) {
	single := singleBindings(pkg.Info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		fun := unwrapFun(call.Fun)
		switch fun := fun.(type) {
		case *ast.Ident:
			switch obj := pkg.Info.Uses[fun].(type) {
			case *types.Builtin:
				return true
			case *types.Func:
				g.link(caller, g.node(obj), call, EdgeStatic)
			default:
				// A function value. Calls of a local bound exactly
				// once to a literal in this function are covered by
				// the enclosing summary; anything else is dynamic.
				if v, ok := obj.(*types.Var); ok {
					if _, isLit := single[v].(*ast.FuncLit); isLit {
						return true
					}
				}
				g.linkDynamic(caller, call)
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[fun]; ok {
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					g.linkDynamic(caller, call) // func-typed field
					return true
				}
				if types.IsInterface(sel.Recv()) {
					g.linkInterface(caller, fn, call)
				} else {
					g.link(caller, g.node(fn), call, EdgeStatic)
				}
				return true
			}
			// Package-qualified reference (pkg.Func) or method
			// expression.
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				g.link(caller, g.node(fn), call, EdgeStatic)
			} else {
				g.linkDynamic(caller, call)
			}
		case *ast.FuncLit:
			// Immediately invoked literal: its body is walked as part
			// of this function, no edge needed.
		default:
			g.linkDynamic(caller, call)
		}
		return true
	})
}

func (g *CallGraph) link(caller, callee *Node, site *ast.CallExpr, kind EdgeKind) {
	e := &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

func (g *CallGraph) linkDynamic(caller *Node, site *ast.CallExpr) {
	caller.Out = append(caller.Out, &Edge{Caller: caller, Site: site, Kind: EdgeDynamic})
}

// linkInterface adds one edge per in-program concrete type that
// satisfies the method's interface. The interface method itself gets a
// node (external, no body) so analyzers can see the dispatch point
// even when no implementation is in the program.
func (g *CallGraph) linkInterface(caller *Node, m *types.Func, site *ast.CallExpr) {
	g.link(caller, g.node(m), site, EdgeInterface)
	iface, _ := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return
	}
	for _, impl := range g.implementations(iface, m) {
		g.link(caller, g.node(impl), site, EdgeInterface)
	}
}

// implementations returns the concrete in-program methods that may be
// the dynamic target of calling m through iface.
func (g *CallGraph) implementations(iface *types.Interface, m *types.Func) []*types.Func {
	var out []*types.Func
	for _, pkg := range g.prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// A BlockWitness explains why a function may block: the kind and
// position of one concrete blocking operation, and the node whose body
// contains it (which may be a transitive callee of the function the
// witness was attached to).
type BlockWitness struct {
	Kind  BlockKind
	Pos   token.Pos
	Owner *Node
}

// MayBlock computes, bottom-up over the Tarjan SCC order, which nodes
// may perform a potentially unbounded blocking operation — a channel
// send/receive, a default-less select, or a WaitGroup.Wait — either
// directly or through a static call chain. Lock acquisitions are
// deliberately not counted (almost every mutex-using helper would
// qualify, drowning the signal); callers that care about
// lock-acquire-under-lock check direct BlockLock sites themselves.
// External callees and dynamic/interface dispatch are treated as
// non-blocking: this is a may-analysis whose findings must be real,
// not a must-analysis.
func (g *CallGraph) MayBlock() map[*Node]*BlockWitness {
	res := make(map[*Node]*BlockWitness)
	for _, comp := range g.SCCs() {
		// Two passes fix the members of a cyclic component against each
		// other; callees outside the component are already final.
		for pass := 0; pass < 2; pass++ {
			for _, n := range comp {
				if res[n] != nil || n.External() {
					continue
				}
				c := n.Conc()
				for _, b := range c.Blocks {
					if b.Kind != BlockLock {
						res[n] = &BlockWitness{Kind: b.Kind, Pos: b.Pos, Owner: n}
						break
					}
				}
				if res[n] != nil {
					continue
				}
				for _, call := range c.Calls {
					if w := res[g.Node(call.Callee)]; w != nil {
						res[n] = w
						break
					}
				}
			}
		}
	}
	return res
}

// InheritedHeld computes, top-down over the call graph, the set of
// mutexes every caller provably holds at every call site of a
// function — the guard context a function body can rely on even though
// it never locks anything itself (the `locked` helper-method idiom).
// The set is the intersection over all in-edges of (caller's own
// inherited set ∪ guards held at the site); call sites inside spawned
// goroutine bodies contribute only their recorded site guards, never
// the spawner's inheritance, because a goroutine does not hold its
// spawner's locks. Members of multi-node cycles and functions with no
// in-edges get the empty set.
func (g *CallGraph) InheritedHeld() map[*Node]GuardSet {
	res := make(map[*Node]GuardSet)
	comps := g.SCCs()
	for i := len(comps) - 1; i >= 0; i-- {
		comp := comps[i]
		if len(comp) > 1 {
			for _, n := range comp {
				res[n] = make(GuardSet)
			}
			continue
		}
		n := comp[0]
		inter := make(GuardSet)
		first := true
		for _, e := range n.In {
			if e.Caller == n {
				continue // self-recursion neither adds nor removes guards
			}
			contrib := make(GuardSet)
			held := e.Caller.Conc().CallHeld[e.Site]
			inSpawn := e.Caller.Conc().InSpawnSite(e.Site)
			if !inSpawn {
				for m, mode := range res[e.Caller] {
					contrib[m] = mode
				}
			}
			for m, mode := range held {
				if mode > contrib[m] {
					contrib[m] = mode
				}
			}
			if first {
				inter = contrib
				first = false
				continue
			}
			for m, mode := range inter {
				cm, ok := contrib[m]
				if !ok {
					delete(inter, m)
				} else if cm < mode {
					inter[m] = cm // the weaker guarantee wins
				}
			}
			if len(inter) == 0 {
				break
			}
		}
		res[n] = inter
	}
	return res
}

// unwrapFun strips parens and generic instantiation indexes from a
// call's function expression.
func unwrapFun(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// singleBindings maps each variable that body binds exactly once, by
// `=`, `:=` or `var`, to the expression in its position on the right
// (nil where there is none). Calls of a local bound once to a function
// literal (the better() helper in curve.MinOn) or to a method value
// resolve statically.
func singleBindings(info *types.Info, body *ast.BlockStmt) map[*types.Var]ast.Expr {
	count := make(map[*types.Var]int)
	value := make(map[*types.Var]ast.Expr)
	record := func(lhs ast.Expr, values []ast.Expr, i int) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v := LocalVar(info, id)
		if v == nil {
			return
		}
		count[v]++
		value[v] = nil
		if i < len(values) {
			value[v] = values[i]
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				record(lhs, st.Rhs, i)
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				record(name, st.Values, i)
			}
		}
		return true
	})
	for v, n := range count {
		if n != 1 {
			delete(value, v)
		}
	}
	return value
}
