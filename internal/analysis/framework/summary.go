// Function summaries: per-function allocation facts, computed once per
// call-graph node and consumed bottom-up by interprocedural analyzers
// (noalloc). A summary answers "what could this function allocate,
// locally?"; transitive questions compose over the call graph.
//
// The central notion is *rootedness*. The hot path's steady-state
// allocation-freedom (docs/PERFORMANCE.md, TestBestInWindowZeroAlloc)
// does not mean "no make/append anywhere": pooled scratch buffers and
// curve breakpoint storage grow during warm-up and are reused
// thereafter. An allocation is *rooted* when it only grows persistent
// storage the caller owns — storage reachable from a pointer receiver,
// a pointer parameter, a (*sync.Pool).Get, or a local derived from one
// (sc.chain[:0], *dst, &sc.total), as the shared Taint engine (taint.go)
// works it out. Rooted growth is amortized away by reuse and is
// exactly what testing.AllocsPerRun observes as zero after warm-up;
// unrooted allocation happens on every call and is what noalloc
// reports.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AllocKind classifies one potential allocation site.
type AllocKind int

const (
	// AllocMake is a make() of a slice, map, or channel.
	AllocMake AllocKind = iota
	// AllocNew is a new(T).
	AllocNew
	// AllocAppend is an append that may grow its backing array.
	AllocAppend
	// AllocMapLit is a map composite literal.
	AllocMapLit
	// AllocCompositeRef is &T{...}, a heap-escaping composite.
	AllocCompositeRef
	// AllocClosure is a function literal that captures variables and
	// escapes (stored, returned, or sent — not a direct call argument
	// or a call-only local).
	AllocClosure
	// AllocBox is a conversion that boxes a non-pointer concrete value
	// into an interface.
	AllocBox
	// AllocString is string concatenation or a string<->[]byte/[]rune
	// conversion.
	AllocString
	// AllocMapWrite is a map element store, which may trigger map
	// growth.
	AllocMapWrite
	// AllocGo is a go statement (new goroutine, escaping closure).
	AllocGo
)

func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocAppend:
		return "append"
	case AllocMapLit:
		return "map literal"
	case AllocCompositeRef:
		return "&composite literal"
	case AllocClosure:
		return "escaping closure"
	case AllocBox:
		return "interface boxing"
	case AllocString:
		return "string allocation"
	case AllocMapWrite:
		return "map store"
	case AllocGo:
		return "go statement"
	default:
		return fmt.Sprintf("AllocKind(%d)", int(k))
	}
}

// An AllocSite is one potential allocation in a function body.
type AllocSite struct {
	Kind AllocKind
	Pos  token.Pos
	// Rooted reports that the allocation only grows persistent
	// caller-owned storage (see the package comment): warm-up growth,
	// not steady-state allocation.
	Rooted bool
}

// A Summary holds the local facts of one function.
type Summary struct {
	Fn     *types.Func
	Allocs []AllocSite
}

// Summary returns the node's local allocation facts, computing them on
// first use. External nodes (no body) return an empty summary.
func (n *Node) Summary() *Summary {
	if n.summary == nil {
		n.summary = summarize(n)
	}
	return n.summary
}

// summarize walks one function body and extracts its allocation sites.
func summarize(n *Node) *Summary {
	s := &Summary{Fn: n.Func}
	if n.Decl == nil || n.Decl.Body == nil {
		return s
	}
	info := n.Pkg.Info
	isRooted := rootedness(n).Tainted

	// Context classification for make/new and function literals:
	// decided by where the expression appears, so collect accepted
	// positions in a pre-pass. A local bound once to a literal is
	// accepted while it is only ever called; used as a value anywhere,
	// the literal escapes after all.
	handledAlloc := make(map[ast.Expr]bool) // make/new assigned to rooted storage
	acceptedLit := make(map[*ast.FuncLit]bool)
	for v, rhs := range singleBindings(info, n.Decl.Body) {
		if lit, ok := rhs.(*ast.FuncLit); ok && !escapesAsValue(info, n.Decl.Body, v) {
			acceptedLit[lit] = true
		}
	}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			if len(nd.Lhs) == len(nd.Rhs) {
				for i, rhs := range nd.Rhs {
					if isBuiltinCall(info, rhs, "make") || isBuiltinCall(info, rhs, "new") {
						if isRooted(nd.Lhs[i]) {
							handledAlloc[rhs] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[nd.Fun]; !ok || !tv.IsType() {
				// A literal passed directly as a call argument does
				// not outlive the call in the idioms this module
				// allows (sort.Search, slices.SortFunc): accepted.
				for _, arg := range nd.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						acceptedLit[lit] = true
					}
				}
				if lit, ok := unwrapFun(nd.Fun).(*ast.FuncLit); ok {
					acceptedLit[lit] = true // immediately invoked
				}
			}
		}
		return true
	})

	add := func(kind AllocKind, pos token.Pos, isrooted bool) {
		s.Allocs = append(s.Allocs, AllocSite{Kind: kind, Pos: pos, Rooted: isrooted})
	}

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.GoStmt:
			add(AllocGo, nd.Pos(), false)
		case *ast.AssignStmt:
			for _, lhs := range nd.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if _, isMap := typeOf(info, ix.X).Underlying().(*types.Map); isMap {
						add(AllocMapWrite, lhs.Pos(), false)
					}
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[nd.Fun]; ok && tv.IsType() {
				if site, bad := classifyConversion(info, nd); bad {
					add(site, nd.Pos(), false)
				}
				return true
			}
			switch {
			case isBuiltinCall(info, nd, "make"):
				add(AllocMake, nd.Pos(), handledAlloc[nd])
			case isBuiltinCall(info, nd, "new"):
				add(AllocNew, nd.Pos(), handledAlloc[nd])
			case isBuiltinCall(info, nd, "append"):
				add(AllocAppend, nd.Pos(), len(nd.Args) > 0 && isRooted(nd.Args[0]))
			}
		case *ast.CompositeLit:
			if _, isMap := typeOf(info, nd).Underlying().(*types.Map); isMap {
				add(AllocMapLit, nd.Pos(), false)
			}
		case *ast.UnaryExpr:
			if nd.Op == token.AND {
				if _, ok := nd.X.(*ast.CompositeLit); ok {
					add(AllocCompositeRef, nd.Pos(), false)
				}
			}
		case *ast.BinaryExpr:
			if nd.Op == token.ADD {
				if b, ok := typeOf(info, nd).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					add(AllocString, nd.Pos(), false)
				}
			}
		case *ast.FuncLit:
			if !acceptedLit[nd] && capturesVariables(info, n.Decl, nd) {
				add(AllocClosure, nd.Pos(), false)
			}
		}
		return true
	})
	return s
}

// classifyConversion reports whether the conversion call allocates:
// string<->[]byte/[]rune traffic, or boxing a non-pointer concrete
// value into an interface.
func classifyConversion(info *types.Info, call *ast.CallExpr) (AllocKind, bool) {
	if len(call.Args) != 1 {
		return 0, false
	}
	dst := typeOf(info, call.Fun)
	src := typeOf(info, call.Args[0])
	if dst == nil || src == nil {
		return 0, false
	}
	if types.IsInterface(dst) && !types.IsInterface(src) {
		if !allocFreeBoxed(src) {
			return AllocBox, true
		}
		return 0, false
	}
	db, dOK := dst.Underlying().(*types.Basic)
	sb, sOK := src.Underlying().(*types.Basic)
	dstStr := dOK && db.Info()&types.IsString != 0
	srcStr := sOK && sb.Info()&types.IsString != 0
	if dstStr != srcStr {
		// string([]byte), []byte(string), string(rune), ... — every
		// cross-kind string conversion copies.
		if dstStr || srcStr {
			return AllocString, true
		}
	}
	return 0, false
}

// allocFreeBoxed reports whether values of t fit an interface word
// without heap allocation (pointer-shaped types).
func allocFreeBoxed(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// rootedness solves which locals of n's body are rooted: derived from
// the pointer receiver, a pointer parameter, or a (*sync.Pool).Get,
// which hands out pooled persistent storage — the scratch idiom
// rootedness exists to accept.
func rootedness(n *Node) *Taint {
	info := n.Pkg.Info
	t := &Taint{Info: info, Source: func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := unwrapFun(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		return ok && fn.FullName() == "(*sync.Pool).Get"
	}}
	sig := n.Func.Type().(*types.Signature)
	seeds := []*types.Var{sig.Recv()}
	for i := 0; i < sig.Params().Len(); i++ {
		seeds = append(seeds, sig.Params().At(i))
	}
	for _, v := range seeds {
		if v != nil && isPointerType(v.Type()) {
			t.Seed(v)
		}
	}
	t.Solve(n.Decl.Body)
	return t
}

// escapesAsValue reports whether v is used anywhere other than as the
// function operand of a call (x() is fine; passing or storing x is an
// escape).
func escapesAsValue(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	escapes := false
	calleeIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			if id, ok := unwrapFun(call.Fun).(*ast.Ident); ok {
				calleeIdents[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		if u, ok := info.Uses[id].(*types.Var); ok && u == v {
			escapes = true
		}
		return true
	})
	return escapes
}

// capturesVariables reports whether lit references a variable declared
// in the enclosing function outside the literal itself.
func capturesVariables(info *types.Info, encl *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= encl.Pos() && v.Pos() < encl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captures = true
		}
		return true
	})
	return captures
}

// LocalVar resolves an identifier to the variable it defines or uses.
func LocalVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// IsPkgLevel reports whether v is a package-level variable.
func IsPkgLevel(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// typeOf is Info.TypeOf with a non-nil guarantee (types.Typ[Invalid]
// for unknown expressions), so callers can chase Underlying safely.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if t := info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unwrapFun(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// ---- Concurrency summaries ----
//
// Alongside allocation facts, a function summary learns the
// concurrency shape of its body: spawn sites (go statements, keyed
// like alloc sites), blocking operations (channel send/recv/select,
// WaitGroup.Wait, mutex acquisition), and guard facts — which
// sync.Mutex/RWMutex objects are held at every field access and call
// site, tracked by a Lock/Unlock pairing walk over the statement
// structure with defer handling. The goleak, lockguard and sharedwrite
// analyzers consume these bottom-up over CallGraph.SCCs (MayBlock) and
// top-down over the in-edges (InheritedHeld).

// GuardMode distinguishes how a mutex is held: GuardWrite for Lock,
// GuardRead for RLock. A write access to a field guarded by an RWMutex
// needs GuardWrite; a read is satisfied by either mode.
type GuardMode int

const (
	// GuardRead is a shared (RLock) hold.
	GuardRead GuardMode = iota + 1
	// GuardWrite is an exclusive (Lock) hold.
	GuardWrite
)

// A GuardSet maps each held mutex object (a sync.Mutex/RWMutex field
// or variable) to the strongest mode held. Mutexes are keyed by their
// types.Var, so s.mu resolves to the same guard across every method of
// the type regardless of receiver name.
type GuardSet map[*types.Var]GuardMode

// Clone copies the set (nil-safe).
func (g GuardSet) Clone() GuardSet {
	out := make(GuardSet, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

// Holds reports whether m is held in at least mode (GuardRead is
// satisfied by GuardWrite).
func (g GuardSet) Holds(m *types.Var, mode GuardMode) bool { return g[m] >= mode }

// BlockKind classifies one potentially blocking operation.
type BlockKind int

const (
	// BlockSend is a channel send (including a semaphore acquire on a
	// chan struct{} slot pool).
	BlockSend BlockKind = iota
	// BlockRecv is a channel receive (including range-over-channel).
	BlockRecv
	// BlockSelect is a select statement with no default clause.
	BlockSelect
	// BlockWait is a (*sync.WaitGroup).Wait call.
	BlockWait
	// BlockLock is a mutex acquisition (Lock or RLock).
	BlockLock
)

func (k BlockKind) String() string {
	switch k {
	case BlockSend:
		return "channel send"
	case BlockRecv:
		return "channel receive"
	case BlockSelect:
		return "blocking select"
	case BlockWait:
		return "WaitGroup.Wait"
	case BlockLock:
		return "mutex acquisition"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// A BlockSite is one potentially blocking operation in a function
// body, with the guards held on entry to it.
type BlockSite struct {
	Kind BlockKind
	Pos  token.Pos
	// Chan is the channel operated on (send/recv), when it resolves to
	// a variable or field; nil for untrackable operands.
	Chan *types.Var
	// Mutex is the lock being acquired (BlockLock only).
	Mutex *types.Var
	// Held are the guards held entering the operation (before a
	// BlockLock acquisition takes effect).
	Held GuardSet
}

// A FieldAccess is one read or write of a struct field, package-level
// variable, or local, with the guards held at the access.
type FieldAccess struct {
	// Obj is the accessed variable: a struct field object for selector
	// accesses (shared across all instances of the type), or the local
	// or package-level variable itself.
	Obj   *types.Var
	Write bool
	Pos   token.Pos
	Held  GuardSet
	// Fresh marks accesses whose base object was constructed in this
	// function (assigned from a composite literal or new): the object
	// is unpublished, so pre-publication initialization needs no guard.
	Fresh bool
	// Deferred marks accesses inside a deferred call or literal.
	Deferred bool
}

// A ConcCall is one resolved call with the guards held at the site.
// Interface calls record the interface method; dynamic calls are not
// recorded (MayBlock treats them as non-blocking, a documented
// may-analysis choice — goleak is the one analyzer that fails closed
// on them, at spawn sites).
type ConcCall struct {
	Callee *types.Func
	Site   *ast.CallExpr
	Pos    token.Pos
	Held   GuardSet
	// InSpawn marks calls made inside a spawned goroutine body: they do
	// not inherit the spawner's locks (the goroutine runs after the
	// caller may have released them).
	InSpawn bool
}

// A SyncOp is one sync.WaitGroup Add/Done/Wait call.
type SyncOp struct {
	Obj      *types.Var // the WaitGroup
	Pos      token.Pos
	Deferred bool
}

// A ChanOp is one channel send, receive or close, indexed for the
// program-wide serviceability lookups goleak performs ("does anything
// ever close the channel this goroutine ranges over?").
type ChanOp struct {
	Ch  *types.Var // nil when the operand does not resolve to a variable
	Pos token.Pos
}

// A SpawnSite is one go statement. Exactly one of Body (literal
// spawns), Callee (static spawns of a declared function), or Dynamic
// (function-value spawns) describes the spawned code.
type SpawnSite struct {
	Stmt *ast.GoStmt
	Pos  token.Pos
	// Callee is the spawned function for `go f()` / `go x.m()` with a
	// statically resolved target.
	Callee *types.Func
	// Body is the summary of the spawned literal's body, computed with
	// an empty guard context (a goroutine does not inherit its
	// spawner's locks). Its Spawns list carries nested go statements.
	Body *ConcSummary
	// BodyLit is the spawned literal (when Body is set), for positional
	// "outside the goroutine" checks.
	BodyLit *ast.FuncLit
	// Dynamic marks spawns whose target cannot be resolved (function
	// values, interface methods); goleak fails closed on these.
	Dynamic bool
}

// A ConcSummary holds the local concurrency facts of one function
// body. Facts inside spawned goroutine literals live on the SpawnSite
// (so a blocking receive in a worker loop is not attributed to the
// function that merely starts the worker), with two deliberate
// exceptions: CallHeld covers spawned bodies too (the call graph folds
// literal bodies into the enclosing declaration, so held-at-site
// lookups must resolve for those edges), and the WaitGroup/channel op
// indexes cover them as well (a goroutine's send can service another
// goroutine's receive).
type ConcSummary struct {
	Fn       *types.Func
	Spawns   []*SpawnSite
	Blocks   []BlockSite
	Accesses []FieldAccess
	Calls    []ConcCall

	// CallHeld records the guards held at every call expression of the
	// function, spawned bodies included.
	CallHeld map[*ast.CallExpr]GuardSet

	// WaitGroup and channel op indexes (spawned bodies included).
	WGAdds, WGDones, WGWaits []SyncOp
	Sends, Recvs, Closes     []ChanOp

	// TailSend/TailDone describe the body's final statement when it is
	// a channel send or a WaitGroup.Done — the result-slot handoff and
	// join shapes goleak accepts.
	TailSend *types.Var
	TailDone *types.Var
}

// Conc returns the node's concurrency summary, computing it on first
// use. External nodes (no body) return an empty summary.
func (n *Node) Conc() *ConcSummary {
	if n.conc == nil {
		n.conc = summarizeConc(n)
	}
	return n.conc
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up (reverse topological) order: every static/interface callee
// of a component appears in an earlier component (or the same one).
// Analyzers that fold summaries over the graph process components in
// this order.
func (g *CallGraph) SCCs() [][]*Node {
	nodes := g.Nodes()
	index := make(map[*Node]int, len(nodes))
	low := make(map[*Node]int, len(nodes))
	onStack := make(map[*Node]bool, len(nodes))
	var stack []*Node
	var comps [][]*Node
	next := 0

	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			m := e.Callee
			if m == nil {
				continue
			}
			if _, seen := index[m]; !seen {
				strongconnect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return comps
}
