// Write-effect summaries: per-function sets of resident-state
// locations a call tree may mutate, computed bottom-up over the Tarjan
// SCC order (the sibling of summary.go's allocation facts and
// concurrency.go's guard facts). The writeset, snapshotsafe and
// aliasleak analyzers consume them to prove snapshot/rollback
// completeness and clone-boundary isolation.
//
// The model is deliberately storage-relative. Every local write is
// classified by the *root* its storage is reachable from — the
// receiver's object, a parameter's object, function-local (fresh)
// storage, or shared storage (globals, call results, anything behind
// an untracked pointer hop). Propagation re-roots a callee's effects
// through the call site's receiver and argument expressions:
// fresh-rooted writes that stay inside the fresh object disappear
// (constructors mutate nothing the caller can see), everything else
// survives with the caller's root. Aliasing is tracked through pointer
// receivers, parameter aliasing, slice reslices (a reslice denotes the
// same backing array), and method values bound once to a local.
//
// The analysis fails closed: a call of a dynamic function value, or a
// call into an external (header-only) function that receives a value
// which can reach tracked storage, yields an UnknownWrite — "this
// function's write set is not provable" — which propagates to every
// caller. The vocabulary of tracked locations is injected via
// WriteVocabulary so the framework stays domain-free; the mclegal
// vocabulary lives in internal/analysis/writeloc.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// WriteRoot classifies the storage a write lands in, relative to the
// function that performs it.
type WriteRoot int

const (
	// WriteFresh is storage allocated by the function itself
	// (composite literals, make, new). Fresh writes that do not cross
	// into foreign storage are invisible to callers and are dropped
	// from summaries.
	WriteFresh WriteRoot = iota
	// WriteRecv is storage reachable from the method receiver.
	WriteRecv
	// WriteParam is storage reachable from parameter Param.
	WriteParam
	// WriteShared is storage with no provable owner: package-level
	// variables, call results, anything behind an extra pointer hop.
	WriteShared
)

func (r WriteRoot) String() string {
	switch r {
	case WriteFresh:
		return "fresh"
	case WriteRecv:
		return "receiver"
	case WriteParam:
		return "parameter"
	case WriteShared:
		return "shared"
	default:
		return "WriteRoot(?)"
	}
}

// A WriteEffect is one (deduplicated) tracked mutation in a function's
// transitive write set.
type WriteEffect struct {
	// Obj is the written location: a struct field object (shared by
	// all instances of the type) or a package-level variable.
	Obj *types.Var
	// Pos is the witness store — the concrete assignment with the least
	// position among those that produced this effect.
	Pos token.Pos
	// Owner is the function whose body contains the witness (a
	// transitive callee of the summarized function, possibly itself).
	Owner *types.Func
	// Root is the storage root relative to the summarized function.
	Root WriteRoot
	// Param is the parameter index when Root == WriteParam.
	Param int
	// Crossed marks writes that reach their storage through an extra
	// pointer hop or a non-fresh slice/map backing: a fresh root does
	// not contain such storage, so crossed effects never drop.
	Crossed bool
}

// An UnknownWrite is one call site that defeats the write-effect
// proof: a dynamic function value, or an external callee that receives
// a value which can reach tracked storage. Unknowns propagate to every
// transitive caller with their original site position.
type UnknownWrite struct {
	Pos   token.Pos
	Owner *types.Func // function whose body contains the call
	What  string      // human-readable description of the call
}

// WriteEffects is the transitive write summary of one function.
type WriteEffects struct {
	Fn      *types.Func
	Effects []WriteEffect  // deduplicated, deterministic order
	Unknown []UnknownWrite // deduplicated by position, sorted
}

// A WriteVocabulary injects the domain knowledge the engine needs:
// which locations are resident state, which types can reach them, and
// what external functions are known to do.
type WriteVocabulary struct {
	// Tracked reports whether a struct field or package-level variable
	// is a resident-state location.
	Tracked func(*types.Var) bool
	// Reaches reports whether a value of t can be used to mutate
	// tracked storage (a *Design can; a copied Cell value cannot).
	Reaches func(types.Type) bool
	// ValueWrites returns the tracked field objects written when a
	// whole value of t is stored (d.Cells[i] = c writes every tracked
	// field of Cell). Nil/empty for untracked types.
	ValueWrites func(types.Type) []*types.Var
	// External classifies a header-only callee. known=true means the
	// function's behavior is understood: it mutates (element-level)
	// exactly the arguments whose indices are returned and retains
	// nothing. known=false means the call must be screened
	// conservatively against Reaches.
	External func(*types.Func) (mutatesArgs []int, known bool)
}

// WriteEffects computes the transitive write summary of every
// non-external node, bottom-up over the SCC order. The result is
// deterministic for a given program and vocabulary.
func (g *CallGraph) WriteEffects(voc *WriteVocabulary) map[*Node]*WriteEffects {
	ctxs := make(map[*Node]*writeCtx)
	local := make(map[*Node]*weState)
	for _, n := range g.Nodes() {
		if n.External() || n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		c := newWriteCtx(n, voc)
		ctxs[n] = c
		local[n] = c.localFacts()
	}

	res := make(map[*Node]*weState)
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				c := ctxs[n]
				if c == nil {
					continue
				}
				st := foldNode(g, n, c, local[n], res)
				if prev := res[n]; prev == nil || st.size() > prev.size() {
					res[n] = st
					changed = true
				}
			}
		}
	}

	out := make(map[*Node]*WriteEffects, len(res))
	for n, st := range res {
		out[n] = st.finish(n.Func)
	}
	return out
}

// ---- accumulation state ----

type effKey struct {
	obj     *types.Var
	root    WriteRoot
	param   int
	crossed bool
}

type weState struct {
	eff map[effKey]WriteEffect
	unk map[token.Pos]UnknownWrite
}

func newWEState() *weState {
	return &weState{eff: make(map[effKey]WriteEffect), unk: make(map[token.Pos]UnknownWrite)}
}

func (s *weState) size() int { return len(s.eff) + len(s.unk) }

// add records e under its key, keeping the least witness position:
// foldNode feeds effects from map ranges, so "first seen" would change
// from run to run.
func (s *weState) add(e WriteEffect) {
	k := effKey{obj: e.Obj, root: e.Root, param: e.Param, crossed: e.Crossed}
	if old, ok := s.eff[k]; !ok || e.Pos < old.Pos {
		s.eff[k] = e
	}
}

func (s *weState) addUnknown(u UnknownWrite) {
	if _, ok := s.unk[u.Pos]; !ok {
		s.unk[u.Pos] = u
	}
}

func (s *weState) finish(fn *types.Func) *WriteEffects {
	w := &WriteEffects{Fn: fn}
	for _, e := range s.eff {
		w.Effects = append(w.Effects, e)
	}
	sort.Slice(w.Effects, func(i, j int) bool {
		a, b := w.Effects[i], w.Effects[j]
		if a.Obj != b.Obj {
			an, bn := varSortKey(a.Obj), varSortKey(b.Obj)
			if an != bn {
				return an < bn
			}
			return a.Obj.Pos() < b.Obj.Pos()
		}
		if a.Root != b.Root {
			return a.Root < b.Root
		}
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		return !a.Crossed && b.Crossed
	})
	for _, u := range s.unk {
		w.Unknown = append(w.Unknown, u)
	}
	sort.Slice(w.Unknown, func(i, j int) bool { return w.Unknown[i].Pos < w.Unknown[j].Pos })
	return w
}

func varSortKey(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Path() + "." + v.Name()
	}
	return v.Name()
}

// ---- expression classification ----

// An exprClass describes where the storage an expression denotes (or
// the value it evaluates to) lives, relative to the function's roots.
type exprClass struct {
	root  WriteRoot
	param int
	// crossed: the storage may lie outside the root object (behind a
	// pointer hop or a foreign slice backing).
	crossed bool
	// direct: the value IS the root handle itself (the pointer/slice/
	// map as passed, or an exact &location), so one dereference or
	// index through it stays inside the root object.
	direct bool
	// freshBacking: a slice/map value whose backing was allocated in
	// this function, so element stores stay inside fresh storage.
	freshBacking bool
}

var sharedClass = exprClass{root: WriteShared, crossed: true}
var freshClass = exprClass{root: WriteFresh, direct: true, freshBacking: true}

func mergeClass(a, b exprClass) exprClass {
	out := exprClass{
		crossed:      a.crossed || b.crossed,
		direct:       a.direct && b.direct,
		freshBacking: a.freshBacking && b.freshBacking,
	}
	switch {
	case a.root == b.root && a.param == b.param:
		out.root, out.param = a.root, a.param
	case a.root == WriteFresh:
		out.root, out.param = b.root, b.param
	case b.root == WriteFresh:
		out.root, out.param = a.root, a.param
	default:
		out.root, out.crossed = WriteShared, true
	}
	return out
}

// boundMethod is a local bound exactly once to a method value (h.Less)
// or a declared function (helper), so a later call of the local can be
// resolved statically.
type boundMethod struct {
	fn   *types.Func
	recv ast.Expr // receiver expression at the bind site; nil for plain functions
	// lit marks a local bound to a parameterless function literal: the
	// literal's body is analyzed inline through its captures (fn stays
	// nil), so the call edge itself carries no effects to fold in.
	lit bool
}

// writeCtx is the per-function classification context: parameter and
// receiver roots, the fixed-point classes of locals, per-local fresh
// field maps, tracked-source aliases, and single-bound method values.
type writeCtx struct {
	node *Node
	info *types.Info
	voc  *WriteVocabulary

	recv      *types.Var
	recvClass exprClass
	paramIdx  map[*types.Var]int
	paramCls  []exprClass

	locals      map[*types.Var]exprClass
	freshFields map[*types.Var]map[*types.Var]bool // fresh local -> field -> fresh backing
	localSrc    map[*types.Var]map[*types.Var]bool // local -> tracked source fields it aliases
	methodVals  map[*types.Var]*boundMethod
}

func newWriteCtx(n *Node, voc *WriteVocabulary) *writeCtx {
	c := &writeCtx{
		node:        n,
		info:        n.Pkg.Info,
		voc:         voc,
		paramIdx:    make(map[*types.Var]int),
		locals:      make(map[*types.Var]exprClass),
		freshFields: make(map[*types.Var]map[*types.Var]bool),
		localSrc:    make(map[*types.Var]map[*types.Var]bool),
	}
	sig, _ := n.Func.Type().(*types.Signature)
	if sig != nil {
		if rv := sig.Recv(); rv != nil {
			c.recv = rv
			if isPointerType(rv.Type()) {
				c.recvClass = exprClass{root: WriteRecv, direct: true}
			} else {
				// A value receiver is a copy: writes to its direct
				// fields mutate the copy, not the caller's object.
				c.recvClass = exprClass{root: WriteFresh, direct: true}
			}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			c.paramIdx[p] = i
			c.paramCls = append(c.paramCls, paramClass(p.Type(), i))
		}
	}
	c.methodVals = boundMethodVals(c.info, n.Decl.Body)
	c.build(n.Decl.Body)
	return c
}

// paramClass gives the root class of parameter i by its type: handle
// types root the callee in caller storage, value types are copies.
func paramClass(t types.Type, i int) exprClass {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return exprClass{root: WriteParam, param: i, direct: true}
	case *types.Chan, *types.Signature, *types.Interface:
		return sharedClass
	default:
		// Value structs, arrays, basics: the slot is a local copy.
		// Reference-typed fields inside it still classify as crossed
		// when selected through, so mutation through them survives.
		return exprClass{root: WriteFresh, direct: true}
	}
}

func isPointerType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// build runs the local fixed point: classes of locals, fresh field
// maps and tracked-source aliases, until nothing changes.
func (c *writeCtx) build(body *ast.BlockStmt) {
	for iter := 0; iter < 32; iter++ {
		changed := false
		ast.Inspect(body, func(nd ast.Node) bool {
			switch st := nd.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					var rhs ast.Expr
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					} else if len(st.Rhs) == 1 {
						rhs = st.Rhs[0]
					}
					if rhs != nil {
						c.recordBinding(lhs, rhs, &changed)
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) {
						c.recordBinding(name, st.Values[i], &changed)
					}
				}
			case *ast.RangeStmt:
				c.recordRange(st, &changed)
			}
			return true
		})
		if !changed {
			break
		}
	}
}

// recordBinding folds one assignment into the fixed point.
func (c *writeCtx) recordBinding(lhs, rhs ast.Expr, changed *bool) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		v := LocalVar(c.info, id)
		if v == nil || v == c.recv || IsPkgLevel(v) {
			return
		}
		if _, isParam := c.paramIdx[v]; isParam {
			return // reassigned parameters keep their root, conservatively
		}
		cl := c.classify(rhs)
		c.mergeLocal(v, cl, changed)
		if cl.root == WriteFresh && cl.direct {
			c.seedFreshFields(v, rhs, changed)
		}
		for _, f := range c.trackedSourcesIn(rhs) {
			if c.localSrc[v] == nil {
				c.localSrc[v] = make(map[*types.Var]bool)
			}
			if !c.localSrc[v][f] {
				c.localSrc[v][f] = true
				*changed = true
			}
		}
		return
	}
	// o.f = rhs on a fresh composite local: the field's backing
	// freshness follows the rhs.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		baseID, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		v := LocalVar(c.info, baseID)
		if v == nil {
			return
		}
		ff := c.freshFields[v]
		if ff == nil {
			return
		}
		s, ok := c.info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return
		}
		f, ok := s.Obj().(*types.Var)
		if !ok {
			return
		}
		c.mergeFreshField(ff, f, c.classify(rhs).freshBacking, changed)
	}
}

// mergeFreshField ANDs a new backing-freshness fact into the field map
// (monotone: once a field held foreign backing it stays unfresh).
func (c *writeCtx) mergeFreshField(ff map[*types.Var]bool, f *types.Var, fresh bool, changed *bool) {
	cur, seen := ff[f]
	if !seen {
		cur = true // unmentioned composite field: zero value, fresh
	}
	next := cur && fresh
	if !seen || next != cur {
		ff[f] = next
		*changed = true
	}
}

func (c *writeCtx) mergeLocal(v *types.Var, cl exprClass, changed *bool) {
	cur, ok := c.locals[v]
	if !ok {
		cur = freshClass // an unassigned `var x T` is local storage
	}
	next := mergeClass(cur, cl)
	if next != cur || !ok {
		c.locals[v] = next
		if next != cur {
			*changed = true
		}
	}
}

// seedFreshFields marks the fields of a composite-literal/new/make
// bound local: unmentioned fields are zero (fresh), mentioned fields
// follow their initializer's backing freshness.
func (c *writeCtx) seedFreshFields(v *types.Var, rhs ast.Expr, changed *bool) {
	if c.freshFields[v] == nil {
		c.freshFields[v] = make(map[*types.Var]bool)
		*changed = true
	}
	lit := compositeOf(rhs)
	if lit == nil {
		return
	}
	ff := c.freshFields[v]
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		f, ok := c.info.Uses[key].(*types.Var)
		if !ok {
			continue
		}
		c.mergeFreshField(ff, f, c.classify(kv.Value).freshBacking, changed)
	}
}

func compositeOf(e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return compositeOf(e.X)
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return compositeOf(e.X)
		}
	}
	return nil
}

func (c *writeCtx) recordRange(st *ast.RangeStmt, changed *bool) {
	cl := c.classify(st.X)
	elem := exprClass{root: cl.root, param: cl.param, crossed: cl.crossed}
	if !cl.direct && !cl.freshBacking {
		elem.crossed = true
	}
	bind := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v := LocalVar(c.info, id)
		if v == nil {
			return
		}
		// Range variables are value copies: only reference-typed
		// elements keep a claim on the container's storage.
		switch v.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
		default:
			return
		}
		c.mergeLocal(v, elem, changed)
	}
	bind(st.Key)
	bind(st.Value)
}

// trackedSourcesIn collects the tracked field objects an expression
// reads through, so locals aliasing tracked storage (memo :=
// r.rowMemo) attribute their writes to the source field.
func (c *writeCtx) trackedSourcesIn(rhs ast.Expr) []*types.Var {
	var out []*types.Var
	ast.Inspect(rhs, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := c.info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if f, ok := s.Obj().(*types.Var); ok && c.voc.Tracked(f) {
			out = append(out, f)
		}
		return true
	})
	return out
}

// classify computes the storage class of an expression. See exprClass.
func (c *writeCtx) classify(e ast.Expr) exprClass {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.classify(e.X)
	case *ast.Ident:
		return c.classifyIdent(e)
	case *ast.SelectorExpr:
		if s, ok := c.info.Selections[e]; ok && s.Kind() == types.FieldVal {
			base := c.classify(e.X)
			cl := exprClass{root: base.root, param: base.param, crossed: base.crossed}
			if isPointerType(typeOf(c.info, e.X)) {
				// Implicit dereference: free only through the bare
				// root handle (d.Cells for a *Design parameter d).
				if !base.direct {
					cl.crossed = true
				}
			}
			if base.root == WriteFresh && base.direct && !cl.crossed {
				if f, ok := s.Obj().(*types.Var); ok {
					cl.freshBacking = c.fieldFresh(e.X, f)
				}
			}
			return cl
		}
		// Package-qualified variable, method value, or qualified
		// function: as a storage class, shared.
		return sharedClass
	case *ast.IndexExpr:
		base := c.classify(e.X)
		cl := exprClass{root: base.root, param: base.param, crossed: base.crossed}
		switch typeOf(c.info, e.X).Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			if !base.direct && !base.freshBacking {
				cl.crossed = true
			}
		case *types.Array:
			// Value array: same storage as the array itself.
			cl.direct = false
		}
		return cl
	case *ast.SliceExpr:
		// A reslice denotes the same backing array.
		return c.classify(e.X)
	case *ast.StarExpr:
		base := c.classify(e.X)
		cl := exprClass{root: base.root, param: base.param, crossed: base.crossed}
		if !base.direct {
			cl.crossed = true
		}
		return cl
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			base := c.classify(e.X)
			// &location: the pointer denotes exactly that storage, so
			// a dereference through it is free.
			return exprClass{root: base.root, param: base.param, crossed: base.crossed, direct: true}
		}
		return sharedClass // channel receive, etc.
	case *ast.CompositeLit:
		return freshClass
	case *ast.CallExpr:
		switch {
		case isBuiltinCall(c.info, e, "make"), isBuiltinCall(c.info, e, "new"):
			return freshClass
		case isBuiltinCall(c.info, e, "append"):
			if len(e.Args) > 0 {
				return c.classify(e.Args[0])
			}
			return freshClass
		}
		if tv, ok := c.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.classify(e.Args[0]) // conversion preserves aliasing
		}
		return sharedClass
	case *ast.BasicLit, *ast.FuncLit:
		return freshClass
	default:
		return sharedClass
	}
}

func (c *writeCtx) classifyIdent(id *ast.Ident) exprClass {
	switch c.info.ObjectOf(id).(type) {
	case *types.Nil, *types.Const:
		return freshClass
	}
	v := LocalVar(c.info, id)
	if v == nil {
		return sharedClass
	}
	if v == c.recv {
		return c.recvClass
	}
	if i, ok := c.paramIdx[v]; ok {
		return c.paramCls[i]
	}
	if IsPkgLevel(v) {
		return sharedClass
	}
	if cl, ok := c.locals[v]; ok {
		return cl
	}
	return freshClass
}

// fieldFresh reports whether field f of the fresh local behind base
// has function-local backing.
func (c *writeCtx) fieldFresh(base ast.Expr, f *types.Var) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	v := LocalVar(c.info, id)
	if v == nil {
		return false
	}
	ff, ok := c.freshFields[v]
	if !ok {
		return false
	}
	fresh, seen := ff[f]
	if !seen {
		return true // unmentioned composite field: zero value, fresh
	}
	return fresh
}

// ---- local facts ----

// localFacts extracts the function's own tracked writes and the
// unknown-call sites its body contains.
func (c *writeCtx) localFacts() *weState {
	st := newWEState()
	body := c.node.Decl.Body
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				c.recordStore(st, lhs)
			}
		case *ast.IncDecStmt:
			c.recordStore(st, nd.X)
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(c.info, nd, "copy"),
				isBuiltinCall(c.info, nd, "clear"),
				isBuiltinCall(c.info, nd, "delete"):
				if len(nd.Args) > 0 {
					c.recordElemStore(st, nd.Args[0], nd.Pos())
				}
			}
		}
		return true
	})
	c.screenEdges(st)
	return st
}

// recordStore attributes one assignment target to its tracked
// location(s) and storage class.
func (c *writeCtx) recordStore(st *weState, lhs ast.Expr) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		v := LocalVar(c.info, id)
		if v != nil && IsPkgLevel(v) && c.voc.Tracked(v) {
			st.add(WriteEffect{Obj: v, Pos: lhs.Pos(), Owner: c.node.Func, Root: WriteShared, Crossed: true})
		}
		return
	}
	objs := c.storeObjs(lhs)
	if len(objs) == 0 {
		return
	}
	cl := c.classify(lhs)
	c.addClassified(st, objs, cl, lhs.Pos())
}

// recordElemStore handles element-level mutation of a container
// expression (copy/clear/delete, external sorts).
func (c *writeCtx) recordElemStore(st *weState, arg ast.Expr, pos token.Pos) {
	var objs []*types.Var
	if et := elemTypeOf(typeOf(c.info, arg)); et != nil {
		objs = c.valueWrites(et)
	}
	if len(objs) == 0 {
		objs = c.pathObjs(arg)
	}
	if len(objs) == 0 {
		return
	}
	cl := c.classify(arg)
	if !cl.direct && !cl.freshBacking {
		cl.crossed = true
	}
	c.addClassified(st, objs, cl, pos)
}

func (c *writeCtx) addClassified(st *weState, objs []*types.Var, cl exprClass, pos token.Pos) {
	root, param, crossed := cl.root, cl.param, cl.crossed
	if root == WriteFresh {
		if !crossed {
			return // writes confined to function-local storage
		}
		root, param = WriteShared, 0
	}
	for _, obj := range objs {
		st.add(WriteEffect{Obj: obj, Pos: pos, Owner: c.node.Func, Root: root, Param: param, Crossed: crossed})
	}
}

// storeObjs resolves a store target to tracked location objects:
// whole-value stores write every tracked field of the stored type,
// otherwise the innermost tracked field on the access path wins, with
// local source aliases as the fallback.
func (c *writeCtx) storeObjs(lhs ast.Expr) []*types.Var {
	for {
		p, ok := lhs.(*ast.ParenExpr)
		if !ok {
			break
		}
		lhs = p.X
	}
	switch lhs.(type) {
	case *ast.IndexExpr, *ast.StarExpr:
		if objs := c.valueWrites(typeOf(c.info, lhs)); len(objs) > 0 {
			return objs
		}
	}
	return c.pathObjs(lhs)
}

func (c *writeCtx) valueWrites(t types.Type) []*types.Var {
	if c.voc.ValueWrites == nil || t == nil {
		return nil
	}
	return c.voc.ValueWrites(t)
}

func (c *writeCtx) pathObjs(e ast.Expr) []*types.Var {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SelectorExpr:
			if s, ok := c.info.Selections[t]; ok && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok && c.voc.Tracked(f) {
					return []*types.Var{f}
				}
				e = t.X
				continue
			}
			if v, ok := c.info.Uses[t.Sel].(*types.Var); ok && !v.IsField() && c.voc.Tracked(v) {
				return []*types.Var{v}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			v := LocalVar(c.info, t)
			if v == nil {
				return nil
			}
			if IsPkgLevel(v) && c.voc.Tracked(v) {
				return []*types.Var{v}
			}
			if srcs := c.localSrc[v]; len(srcs) > 0 {
				out := make([]*types.Var, 0, len(srcs))
				for f := range srcs {
					out = append(out, f)
				}
				sort.Slice(out, func(i, j int) bool {
					if ki, kj := varSortKey(out[i]), varSortKey(out[j]); ki != kj {
						return ki < kj
					}
					return out[i].Pos() < out[j].Pos()
				})
				return out
			}
			return nil
		default:
			return nil
		}
	}
}

func elemTypeOf(t types.Type) types.Type {
	switch t := t.Underlying().(type) {
	case *types.Slice:
		return t.Elem()
	case *types.Array:
		return t.Elem()
	case *types.Map:
		return t.Elem()
	case *types.Pointer:
		if a, ok := t.Elem().Underlying().(*types.Array); ok {
			return a.Elem()
		}
	}
	return nil
}

// ---- call screening (local) ----

// screenEdges classifies the function's out-edges that propagation
// cannot resolve: dynamic calls (unless bound once to a method value),
// interface calls with no in-program implementation, and external
// callees. Known externals contribute element-store effects; anything
// else that receives a value reaching tracked storage becomes an
// UnknownWrite.
func (c *writeCtx) screenEdges(st *weState) {
	implCount := make(map[*ast.CallExpr]int)
	for _, e := range c.node.Out {
		if e.Kind == EdgeInterface && e.Callee != nil && !e.Callee.External() {
			implCount[e.Site]++
		}
	}
	seen := make(map[*ast.CallExpr]bool)
	for _, e := range c.node.Out {
		switch {
		case e.Kind == EdgeDynamic:
			if c.resolveDynamic(e.Site) != nil {
				continue // handled statically during propagation
			}
			st.addUnknown(UnknownWrite{
				Pos: e.Site.Pos(), Owner: c.node.Func,
				What: "call of a dynamic function value",
			})
		case e.Kind == EdgeInterface:
			if seen[e.Site] {
				continue
			}
			seen[e.Site] = true
			if implCount[e.Site] > 0 {
				continue // the implementation edges carry the effects
			}
			if c.argsReach(e.Site, false) {
				st.addUnknown(UnknownWrite{
					Pos: e.Site.Pos(), Owner: c.node.Func,
					What: "interface call with no in-program implementation receives tracked state",
				})
			}
		case e.Callee != nil && e.Callee.External():
			if e.Kind != EdgeStatic {
				continue
			}
			fn := e.Callee.Func
			if c.voc.External != nil {
				if mutates, known := c.voc.External(fn); known {
					for _, idx := range mutates {
						if idx < len(e.Site.Args) {
							c.recordElemStore(st, e.Site.Args[idx], e.Site.Pos())
						}
					}
					continue
				}
			}
			if c.argsReach(e.Site, true) {
				st.addUnknown(UnknownWrite{
					Pos: e.Site.Pos(), Owner: c.node.Func,
					What: "external call to " + fn.FullName() + " may retain or mutate tracked state",
				})
			}
		}
	}
}

// argsReach reports whether the call passes anything an unknown callee
// could use to mutate tracked storage: a receiver or argument whose
// type reaches the vocabulary, or an opaque function value.
func (c *writeCtx) argsReach(site *ast.CallExpr, includeRecv bool) bool {
	if includeRecv {
		if sel, ok := unwrapFun(site.Fun).(*ast.SelectorExpr); ok {
			if s, ok := c.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if c.reaches(typeOf(c.info, sel.X)) {
					return true
				}
			}
		}
	}
	for _, arg := range site.Args {
		if _, isLit := arg.(*ast.FuncLit); isLit {
			continue // the literal's body is analyzed inline
		}
		t := typeOf(c.info, arg)
		if _, isFunc := t.Underlying().(*types.Signature); isFunc {
			return true // opaque function value: fail closed
		}
		if c.reaches(t) {
			return true
		}
	}
	return false
}

func (c *writeCtx) reaches(t types.Type) bool {
	return c.voc.Reaches != nil && t != nil && c.voc.Reaches(t)
}

// resolveDynamic resolves a call of a local bound exactly once to a
// method value or declared function.
func (c *writeCtx) resolveDynamic(site *ast.CallExpr) *boundMethod {
	id, ok := unwrapFun(site.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return c.methodVals[v]
}

// boundMethodVals finds locals bound exactly once to a concrete method
// value (h.Reload), a declared function (helper), or a parameterless
// function literal: calls of such locals resolve statically, with the
// receiver classified at the bind site.
func boundMethodVals(info *types.Info, body *ast.BlockStmt) map[*types.Var]*boundMethod {
	out := make(map[*types.Var]*boundMethod)
	for v, rhs := range singleBindings(info, body) {
		switch rhs := rhs.(type) {
		case *ast.SelectorExpr:
			if s, ok := info.Selections[rhs]; ok && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok && !types.IsInterface(s.Recv()) {
					out[v] = &boundMethod{fn: fn, recv: rhs.X}
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[rhs].(*types.Func); ok {
				out[v] = &boundMethod{fn: fn}
			}
		case *ast.FuncLit:
			// A parameterless literal mutates only through captures,
			// which the inline walk already attributes to the enclosing
			// function; with parameters the call site would smuggle
			// arguments past that attribution, so those stay dynamic.
			if rhs.Type.Params == nil || len(rhs.Type.Params.List) == 0 {
				out[v] = &boundMethod{lit: true}
			}
		}
	}
	return out
}

// ---- propagation ----

// foldNode recomputes a node's transitive state from its local facts
// and the current summaries of its callees, re-rooting every callee
// effect through the call site's receiver and argument classes.
func foldNode(g *CallGraph, n *Node, c *writeCtx, local *weState, res map[*Node]*weState) *weState {
	st := newWEState()
	for _, e := range local.eff {
		st.add(e)
	}
	for _, u := range local.unk {
		st.addUnknown(u)
	}
	for _, e := range n.Out {
		var callee *Node
		var recvExpr ast.Expr
		var args []ast.Expr
		switch {
		case e.Kind == EdgeDynamic:
			bm := c.resolveDynamic(e.Site)
			if bm == nil {
				continue
			}
			callee = g.Node(bm.fn)
			recvExpr, args = bm.recv, e.Site.Args
		case e.Callee != nil && !e.Callee.External():
			callee = e.Callee
			recvExpr, args = SplitOperands(c.info, e.Site)
		default:
			continue
		}
		if callee == nil {
			continue
		}
		sub := res[callee]
		if sub == nil {
			continue // not computed yet (same SCC); next pass picks it up
		}
		sig, _ := callee.Func.Type().(*types.Signature)
		for _, eff := range sub.eff {
			cl, ok := operandClass(c, eff, sig, recvExpr, args, e.Site)
			if !ok {
				continue
			}
			if re, keep := reroot(eff, cl); keep {
				st.add(re)
			}
		}
		for _, u := range sub.unk {
			st.addUnknown(u)
		}
	}
	return st
}

// SplitOperands maps a call site onto (receiver expression, argument
// expressions), normalizing method expressions (T.M(recv, args...)).
func SplitOperands(info *types.Info, site *ast.CallExpr) (recv ast.Expr, args []ast.Expr) {
	fun := unwrapFun(site.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			switch s.Kind() {
			case types.MethodVal:
				return sel.X, site.Args
			case types.MethodExpr:
				if len(site.Args) > 0 {
					return site.Args[0], site.Args[1:]
				}
			}
		}
	}
	return nil, site.Args
}

// operandClass finds the caller-side class of the storage a callee
// effect is rooted in.
func operandClass(c *writeCtx, eff WriteEffect, sig *types.Signature, recvExpr ast.Expr, args []ast.Expr, site *ast.CallExpr) (exprClass, bool) {
	switch eff.Root {
	case WriteShared:
		return sharedClass, true
	case WriteRecv:
		if recvExpr == nil {
			return sharedClass, true
		}
		return c.classify(recvExpr), true
	case WriteParam:
		if sig == nil {
			return sharedClass, true
		}
		np := sig.Params().Len()
		idx := eff.Param
		if sig.Variadic() && idx == np-1 {
			if site.Ellipsis.IsValid() {
				if idx < len(args) {
					return c.classify(args[idx]), true
				}
				return sharedClass, true
			}
			if idx >= len(args) {
				return exprClass{}, false // nothing passed for the variadic slot
			}
			cl := c.classify(args[idx])
			for _, a := range args[idx+1:] {
				cl = mergeClass(cl, c.classify(a))
			}
			return cl, true
		}
		if idx < len(args) {
			return c.classify(args[idx]), true
		}
		return sharedClass, true
	default: // WriteFresh never appears in summaries
		return sharedClass, true
	}
}

// reroot rewrites a callee effect in the caller's frame. Fresh-rooted
// call-site storage absorbs uncrossed effects entirely; everything
// else survives under the caller's root, crossing when the handle
// passed was not the bare root.
func reroot(eff WriteEffect, cl exprClass) (WriteEffect, bool) {
	switch {
	case cl.root == WriteShared || cl.crossed:
		eff.Root, eff.Param, eff.Crossed = WriteShared, 0, true
	case cl.root == WriteFresh:
		if eff.Crossed || !cl.direct {
			eff.Root, eff.Param, eff.Crossed = WriteShared, 0, true
			return eff, true
		}
		return eff, false // the mutated storage is the caller's own fresh object
	default:
		eff.Root, eff.Param = cl.root, cl.param
		eff.Crossed = eff.Crossed || !cl.direct
	}
	return eff, true
}
