// Concurrency summary construction: a block-structured walk over one
// function body that tracks the set of held mutexes through
// Lock/Unlock pairs (with defer handling), records field/variable
// accesses and call sites with their guard context, classifies
// blocking operations, and splits spawned goroutine literals into
// their own sub-summaries.
//
// The guard walk is a simple pairing lattice, not a full CFG dataflow:
// statements in a block are processed in order with a mutable held
// set; branches (if/for/switch/select bodies) get a clone, so a lock
// taken inside a branch never leaks into the code after it. A
// `defer mu.Unlock()` leaves the mutex held for the rest of the body —
// the idiomatic lock-to-end-of-function shape — while an explicit
// Unlock removes it at that point. This under-approximates release
// (a branch that unlocks early is still treated as held afterwards
// only if the unlock was inside the branch), which errs toward
// reporting a blocking-op-under-lock that a human must then judge, and
// never toward silently missing an unguarded access: guard inference
// in lockguard works on majorities, not single samples.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// summarizeConc computes the concurrency summary of one node.
func summarizeConc(n *Node) *ConcSummary {
	s := &ConcSummary{Fn: n.Func, CallHeld: make(map[*ast.CallExpr]GuardSet)}
	if n.Decl == nil || n.Decl.Body == nil {
		return s
	}
	w := &concWalk{info: n.Pkg.Info, sum: s, fresh: make(map[*types.Var]bool)}
	w.stmts(n.Decl.Body.List, make(GuardSet))
	s.TailSend, s.TailDone = tailFacts(n.Pkg.Info, n.Decl.Body.List)
	// Fold spawned-body call-site guards and op indexes into the
	// enclosing summary (see the ConcSummary doc for why these two fact
	// families span the whole declaration).
	var fold func(parent, body *ConcSummary)
	fold = func(parent, body *ConcSummary) {
		for site, held := range body.CallHeld {
			parent.CallHeld[site] = held
		}
		parent.WGAdds = append(parent.WGAdds, body.WGAdds...)
		parent.WGDones = append(parent.WGDones, body.WGDones...)
		parent.WGWaits = append(parent.WGWaits, body.WGWaits...)
		parent.Sends = append(parent.Sends, body.Sends...)
		parent.Recvs = append(parent.Recvs, body.Recvs...)
		parent.Closes = append(parent.Closes, body.Closes...)
		for _, sp := range body.Spawns {
			if sp.Body != nil {
				fold(parent, sp.Body)
			}
		}
	}
	for _, sp := range s.Spawns {
		if sp.Body != nil {
			fold(s, sp.Body)
		}
	}
	return s
}

// AllSpawns returns the summary's spawn sites including ones nested
// inside spawned bodies.
func (s *ConcSummary) AllSpawns() []*SpawnSite {
	out := append([]*SpawnSite(nil), s.Spawns...)
	for _, sp := range s.Spawns {
		if sp.Body != nil {
			out = append(out, sp.Body.AllSpawns()...)
		}
	}
	return out
}

// InSpawnSite reports whether the call site lexically sits inside one
// of the summary's spawned goroutine bodies (including nested spawns).
func (s *ConcSummary) InSpawnSite(site *ast.CallExpr) bool {
	for _, sp := range s.AllSpawns() {
		if sp.Body == nil {
			continue
		}
		if _, ok := sp.Body.CallHeld[site]; ok {
			return true
		}
	}
	return false
}

// SpawnBindings maps the parameters (and receiver) of a named spawn
// target to the caller variables bound to them at the go statement:
// `go worker(&wg, ch)` binds worker's wg parameter to the caller's wg
// and its ch parameter to the caller's ch, letting a lifetime proof
// translate the callee body's channel and WaitGroup facts into the
// spawner's frame. A parameter whose argument does not resolve to a
// variable maps to nil (unprovable); info must be the spawning
// package's type info. Returns nil for literal or dynamic spawns.
func SpawnBindings(info *types.Info, site *SpawnSite) map[*types.Var]*types.Var {
	if site.Callee == nil {
		return nil
	}
	sig, ok := site.Callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[*types.Var]*types.Var)
	if recv := sig.Recv(); recv != nil {
		if sel, ok := unwrapFun(site.Stmt.Call.Fun).(*ast.SelectorExpr); ok {
			out[recv] = resolveVar(info, sel.X)
		}
	}
	params := sig.Params()
	for i, arg := range site.Stmt.Call.Args {
		if i >= params.Len() {
			break
		}
		if sig.Variadic() && i == params.Len()-1 {
			break // variadic slot aggregates; no single binding
		}
		out[params.At(i)] = resolveVar(info, arg)
	}
	return out
}

// concWalk carries the walk state for one summary (one declared body,
// or one spawned literal body).
type concWalk struct {
	info *types.Info
	sum  *ConcSummary
	// fresh holds locals assigned from a composite literal or new(T) in
	// this body: their referents are unpublished until stored somewhere
	// shared, so accesses through them are constructor initialization.
	fresh map[*types.Var]bool
	// inDefer marks walking inside a deferred call or literal: Unlocks
	// do not release (they run at return), and ops are tagged Deferred.
	inDefer bool
	// inSelect suppresses the per-communication BlockSites inside a
	// select (the select itself is the one blocking point).
	inSelect bool
	// spawnDepth > 0 while walking a spawned literal body (used to tag
	// ConcCall.InSpawn on calls recorded there).
	inSpawn bool
}

func (w *concWalk) stmts(list []ast.Stmt, held GuardSet) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *concWalk) stmt(s ast.Stmt, held GuardSet) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		// A bare nested block shares the sequence: locks taken inside
		// it remain held after (Go scoping does not release them).
		w.stmts(s.List, held)
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.SendStmt:
		w.chanSend(s, held)
	case *ast.AssignStmt:
		w.assign(s, held)
	case *ast.IncDecStmt:
		w.target(s.X, held)
	case *ast.GoStmt:
		w.spawn(s, held)
	case *ast.DeferStmt:
		w.deferCall(s.Call, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		w.stmt(s.Init, held)
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, held.Clone())
		w.stmt(s.Else, held.Clone())
	case *ast.ForStmt:
		w.stmt(s.Init, held)
		inner := held.Clone()
		w.expr(s.Cond, inner)
		w.stmts(s.Body.List, inner)
		w.stmt(s.Post, inner)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		if _, isChan := typeOf(w.info, s.X).Underlying().(*types.Chan); isChan {
			ch := resolveVar(w.info, s.X)
			w.sum.Recvs = append(w.sum.Recvs, ChanOp{Ch: ch, Pos: s.Pos()})
			w.block(BlockSite{Kind: BlockRecv, Pos: s.Pos(), Chan: ch, Held: held.Clone()})
		}
		if s.Tok == token.ASSIGN {
			w.target(s.Key, held)
			w.target(s.Value, held)
		}
		w.stmts(s.Body.List, held.Clone())
	case *ast.SwitchStmt:
		w.stmt(s.Init, held)
		w.expr(s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.Clone()
				for _, e := range cc.List {
					w.expr(e, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held)
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.Clone())
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(s, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.markFresh(name, vs.Values[i])
						w.expr(vs.Values[i], held)
					}
				}
			}
		}
	}
}

// selectStmt records one BlockSelect for a default-less select and
// walks the communication clauses with the per-op BlockSites
// suppressed; the channel ops still enter the service indexes either
// way (an op behind a default still services its peer).
func (w *concWalk) selectStmt(s *ast.SelectStmt, held GuardSet) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.block(BlockSite{Kind: BlockSelect, Pos: s.Pos(), Held: held.Clone()})
	}
	saved := w.inSelect
	w.inSelect = true
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		inner := held.Clone()
		w.stmt(cc.Comm, inner)
		w.inSelect = saved
		w.stmts(cc.Body, inner)
		w.inSelect = true
	}
	w.inSelect = saved
}

func (w *concWalk) chanSend(s *ast.SendStmt, held GuardSet) {
	ch := resolveVar(w.info, s.Chan)
	w.sum.Sends = append(w.sum.Sends, ChanOp{Ch: ch, Pos: s.Pos()})
	if !w.inSelect {
		w.block(BlockSite{Kind: BlockSend, Pos: s.Pos(), Chan: ch, Held: held.Clone()})
	}
	w.expr(s.Value, held)
}

func (w *concWalk) block(b BlockSite) { w.sum.Blocks = append(w.sum.Blocks, b) }

func (w *concWalk) assign(s *ast.AssignStmt, held GuardSet) {
	if s.Tok == token.DEFINE && len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				w.markFresh(id, s.Rhs[i])
			}
		}
	}
	for _, rhs := range s.Rhs {
		w.expr(rhs, held)
	}
	for _, lhs := range s.Lhs {
		w.target(lhs, held)
	}
}

// markFresh records a local defined from a composite literal or new(T):
// its referent is private to this function until published.
func (w *concWalk) markFresh(id *ast.Ident, rhs ast.Expr) {
	v, ok := w.info.Defs[id].(*types.Var)
	if !ok {
		return
	}
	switch rhs := rhs.(type) {
	case *ast.CompositeLit:
		w.fresh[v] = true
	case *ast.UnaryExpr:
		if rhs.Op == token.AND {
			if _, ok := rhs.X.(*ast.CompositeLit); ok {
				w.fresh[v] = true
			}
		}
	case *ast.CallExpr:
		if isBuiltinCall(w.info, rhs, "new") {
			w.fresh[v] = true
		}
	}
}

// target records one assignment target: a write access to the
// outermost resolvable variable (a store through an index or selector
// chain mutates the container the base names).
func (w *concWalk) target(e ast.Expr, held GuardSet) {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if v := LocalVar(w.info, e); v != nil {
			w.access(v, e.Pos(), true, held, w.isFreshBase(e))
		}
	case *ast.SelectorExpr:
		if v := fieldOf(w.info, e); v != nil {
			w.access(v, e.Pos(), true, held, w.isFreshBase(e))
		}
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.target(e.X, held)
		w.expr(e.Index, held)
	case *ast.StarExpr:
		// A deref store's target is whatever the pointer points at —
		// unresolvable here; the pointer itself is read.
		w.expr(e.X, held)
	case *ast.ParenExpr:
		w.target(e.X, held)
	default:
		w.expr(e, held)
	}
}

func (w *concWalk) access(v *types.Var, pos token.Pos, write bool, held GuardSet, fresh bool) {
	if selfSynchronized(v.Type()) {
		return
	}
	w.sum.Accesses = append(w.sum.Accesses, FieldAccess{
		Obj: v, Write: write, Pos: pos, Held: held.Clone(), Fresh: fresh, Deferred: w.inDefer,
	})
}

// expr walks one expression in read position.
func (w *concWalk) expr(e ast.Expr, held GuardSet) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if v, ok := w.info.Uses[e].(*types.Var); ok && !v.IsField() {
			w.access(v, e.Pos(), false, held, w.fresh[v])
		}
	case *ast.SelectorExpr:
		if v := fieldOf(w.info, e); v != nil {
			w.access(v, e.Pos(), false, held, w.isFreshBase(e))
		}
		w.expr(e.X, held)
	case *ast.CallExpr:
		w.call(e, held)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			ch := resolveVar(w.info, e.X)
			w.sum.Recvs = append(w.sum.Recvs, ChanOp{Ch: ch, Pos: e.Pos()})
			if !w.inSelect {
				w.block(BlockSite{Kind: BlockRecv, Pos: e.Pos(), Chan: ch, Held: held.Clone()})
			}
		}
		w.expr(e.X, held)
	case *ast.FuncLit:
		// A non-spawn literal folds into the enclosing summary, walked
		// with a clone of the current guard context (callbacks are
		// typically invoked where they are built; for stored escaping
		// callbacks this over-approximates the guards, which biases
		// lockguard toward accepting — a documented may-analysis
		// choice).
		w.stmts(e.Body.List, held.Clone())
	case *ast.BinaryExpr:
		w.expr(e.X, held)
		w.expr(e.Y, held)
	case *ast.ParenExpr:
		w.expr(e.X, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.expr(e.X, held)
		w.expr(e.Index, held)
	case *ast.IndexListExpr:
		w.expr(e.X, held)
	case *ast.SliceExpr:
		w.expr(e.X, held)
		w.expr(e.Low, held)
		w.expr(e.High, held)
		w.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, held)
				continue
			}
			w.expr(el, held)
		}
	}
}

// call handles one call expression: sync.Mutex/RWMutex lock pairing,
// WaitGroup ops, close(), static callee recording, and the held-at-site
// index.
func (w *concWalk) call(call *ast.CallExpr, held GuardSet) {
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			w.expr(a, held)
		}
		return
	}
	if isBuiltinCall(w.info, call, "close") && len(call.Args) == 1 {
		w.sum.Closes = append(w.sum.Closes, ChanOp{Ch: resolveVar(w.info, call.Args[0]), Pos: call.Pos()})
		return
	}
	fun := unwrapFun(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := selectedFunc(w.info, sel); ok {
			if w.syncMethod(call, sel, fn, held) {
				return
			}
		}
	}
	w.sum.CallHeld[call] = held.Clone()
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := w.info.Uses[fun].(*types.Func); ok {
			w.recordCall(fn, call, held)
		}
	case *ast.SelectorExpr:
		if fn, ok := selectedFunc(w.info, sel(fun)); ok {
			w.recordCall(fn, call, held)
		}
		w.expr(fun.X, held)
	case *ast.FuncLit:
		// Immediately invoked: walked inline with the current guards.
		w.stmts(fun.Body.List, held.Clone())
	}
	for _, a := range call.Args {
		w.expr(a, held)
	}
}

func sel(e *ast.SelectorExpr) *ast.SelectorExpr { return e }

func (w *concWalk) recordCall(fn *types.Func, call *ast.CallExpr, held GuardSet) {
	w.sum.Calls = append(w.sum.Calls, ConcCall{
		Callee: fn.Origin(), Site: call, Pos: call.Pos(), Held: held.Clone(), InSpawn: w.inSpawn,
	})
}

// syncMethod recognizes the sync.Mutex/RWMutex/WaitGroup method calls
// that mutate the walk state; it reports true when the call was one.
func (w *concWalk) syncMethod(call *ast.CallExpr, fun *ast.SelectorExpr, fn *types.Func, held GuardSet) bool {
	recv := func() *types.Var { return resolveVar(w.info, fun.X) }
	switch fn.Origin().FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		m := recv()
		w.block(BlockSite{Kind: BlockLock, Pos: call.Pos(), Mutex: m, Held: held.Clone()})
		if m != nil && !w.inDefer {
			held[m] = GuardWrite
		}
	case "(*sync.RWMutex).RLock":
		m := recv()
		w.block(BlockSite{Kind: BlockLock, Pos: call.Pos(), Mutex: m, Held: held.Clone()})
		if m != nil && !w.inDefer && held[m] < GuardRead {
			held[m] = GuardRead
		}
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		if m := recv(); m != nil && !w.inDefer {
			delete(held, m)
		}
	case "(*sync.WaitGroup).Add":
		w.sum.WGAdds = append(w.sum.WGAdds, SyncOp{Obj: recv(), Pos: call.Pos(), Deferred: w.inDefer})
		for _, a := range call.Args {
			w.expr(a, held)
		}
	case "(*sync.WaitGroup).Done":
		w.sum.WGDones = append(w.sum.WGDones, SyncOp{Obj: recv(), Pos: call.Pos(), Deferred: w.inDefer})
	case "(*sync.WaitGroup).Wait":
		w.sum.WGWaits = append(w.sum.WGWaits, SyncOp{Obj: recv(), Pos: call.Pos(), Deferred: w.inDefer})
		w.block(BlockSite{Kind: BlockWait, Pos: call.Pos(), Held: held.Clone()})
	default:
		return false
	}
	return true
}

// deferCall handles `defer f(...)`: the call runs at return, so lock
// mutations inside it are ignored for the sequence (a deferred Unlock
// keeps the mutex held to the end) and ops inside it are tagged.
func (w *concWalk) deferCall(call *ast.CallExpr, held GuardSet) {
	saved := w.inDefer
	w.inDefer = true
	if lit, ok := unwrapFun(call.Fun).(*ast.FuncLit); ok {
		w.stmts(lit.Body.List, held.Clone())
	} else {
		w.call(call, held)
	}
	w.inDefer = saved
}

// spawn splits a go statement: literal bodies get their own
// sub-summary walked with an empty guard context (a goroutine does not
// inherit its spawner's locks); named targets are recorded for the
// call-graph side; anything else is a dynamic spawn.
func (w *concWalk) spawn(s *ast.GoStmt, held GuardSet) {
	site := &SpawnSite{Stmt: s, Pos: s.Pos()}
	fun := unwrapFun(s.Call.Fun)
	switch fun := fun.(type) {
	case *ast.FuncLit:
		body := &ConcSummary{Fn: w.sum.Fn, CallHeld: make(map[*ast.CallExpr]GuardSet)}
		bw := &concWalk{info: w.info, sum: body, fresh: make(map[*types.Var]bool), inSpawn: true}
		bw.stmts(fun.Body.List, make(GuardSet))
		body.TailSend, body.TailDone = tailFacts(w.info, fun.Body.List)
		site.Body = body
		site.BodyLit = fun
	case *ast.Ident:
		if fn, ok := w.info.Uses[fun].(*types.Func); ok {
			site.Callee = fn.Origin()
		} else {
			site.Dynamic = true
		}
	case *ast.SelectorExpr:
		if fn, ok := selectedFunc(w.info, fun); ok {
			site.Callee = fn.Origin()
		} else {
			site.Dynamic = true
		}
		w.expr(fun.X, held)
	default:
		site.Dynamic = true
	}
	// The spawn's arguments are evaluated in the spawning goroutine.
	for _, a := range s.Call.Args {
		w.expr(a, held)
	}
	w.sum.Spawns = append(w.sum.Spawns, site)
}

// isFreshBase reports whether the leftmost identifier of a selector
// chain is a constructor-local of this body.
func (w *concWalk) isFreshBase(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			v, _ := w.info.Uses[x].(*types.Var)
			if v == nil {
				v, _ = w.info.Defs[x].(*types.Var)
			}
			return v != nil && w.fresh[v]
		default:
			return false
		}
	}
}

// tailFacts inspects a body for the join-handoff shapes goleak
// accepts: a trailing channel send (result slot), a trailing
// WaitGroup.Done, or a `defer wg.Done()` anywhere at the top level —
// the deferred form runs on every exit path, which is strictly
// stronger than a literal tail statement.
func tailFacts(info *types.Info, list []ast.Stmt) (tailSend, tailDone *types.Var) {
	doneRecv := func(call *ast.CallExpr) *types.Var {
		if s, ok := unwrapFun(call.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := selectedFunc(info, s); ok && fn.Origin().FullName() == "(*sync.WaitGroup).Done" {
				return resolveVar(info, s.X)
			}
		}
		return nil
	}
	for _, s := range list {
		if d, ok := s.(*ast.DeferStmt); ok {
			if wg := doneRecv(d.Call); wg != nil {
				tailDone = wg
			}
		}
	}
	if len(list) == 0 {
		return nil, tailDone
	}
	switch last := list[len(list)-1].(type) {
	case *ast.SendStmt:
		tailSend = resolveVar(info, last.Chan)
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if wg := doneRecv(call); wg != nil {
				tailDone = wg
			}
		}
	}
	return tailSend, tailDone
}

// selectedFunc resolves a selector to the method or package function
// it names.
func selectedFunc(info *types.Info, e *ast.SelectorExpr) (*types.Func, bool) {
	if sel, ok := info.Selections[e]; ok {
		fn, ok := sel.Obj().(*types.Func)
		return fn, ok
	}
	fn, ok := info.Uses[e.Sel].(*types.Func)
	return fn, ok
}

// resolveVar resolves an expression to the variable or field object it
// denotes, chasing parens, derefs and address-ofs; nil when the
// expression is anything more dynamic (a call result, an index, a
// literal).
func resolveVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			return LocalVar(info, x)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				v, _ := sel.Obj().(*types.Var)
				return v
			}
			// Package-qualified variable.
			v, _ := info.Uses[x.Sel].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// fieldOf resolves a selector expression to the struct field or
// package-level variable it reads, nil for methods and package names.
func fieldOf(info *types.Info, e *ast.SelectorExpr) *types.Var {
	if sel, ok := info.Selections[e]; ok {
		if sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		return nil
	}
	if v, ok := info.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
		return v // package-qualified variable
	}
	return nil
}

// selfSynchronized reports types whose values carry their own
// synchronization discipline — channels, sync primitives, atomics —
// and are therefore excluded from guard inference and the shared-write
// screen (a chan field is read on every send; that is its job).
func selfSynchronized(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync", "sync/atomic":
				return true
			}
		}
	}
	return false
}
