// Package noalloc statically proves that the call tree rooted at the
// functions marked //mclegal:hotpath is free of steady-state heap
// allocation — the static twin of the dynamic proof in
// mgl.TestBestInWindowZeroAlloc (testing.AllocsPerRun == 0 after
// warm-up).
//
// The analyzer walks the program call graph (framework.CallGraph) from
// every //mclegal:hotpath <why> root and inspects the allocation
// summary (framework.Summary) of each reachable function:
//
//   - Rooted allocations — make/append/new growth of persistent
//     caller-owned storage such as pooled scratch buffers or curve
//     breakpoint arrays — are warm-up growth and accepted; they are
//     exactly what AllocsPerRun amortizes to zero.
//   - Everything else is reported: unrooted make/new/append, map
//     literals and map stores, &composite literals, escaping closures
//     that capture variables, interface boxing of non-pointer values,
//     string concatenation/conversion, and go statements.
//   - Call edges must stay provable: indirect calls of unknown
//     function values are reported, interface calls are expanded to
//     every in-program implementation (and reported when none exists),
//     and calls into externals without bodies are reported unless the
//     callee is on the documented allow list of known
//     allocation-free routines (sort.Search, slices.Sort/SortFunc,
//     cmp.Compare, sync.Pool Get/Put, sync.Mutex Lock/Unlock).
//
// A site that allocates by design takes //mclegal:alloc <why> on its
// line (or the line above); the justification is mandatory. Hot-path
// roots are declared with //mclegal:hotpath <why> on the function's
// doc comment; the reason text is mandatory there too, and the root
// set is pinned to the dynamic benchmark by
// TestHotPathRootsMatchDynamicProof.
package noalloc

import (
	"fmt"
	"go/token"
	"go/types"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// Analyzer is the noalloc check.
var Analyzer = &framework.Analyzer{
	Name:      "noalloc",
	Doc:       "prove the //mclegal:hotpath call tree allocation-free (suppress sites with //mclegal:alloc)",
	Program:   findings,
	Scope:     scope.HotPathClosure,
	Directive: "alloc",
	Example:   "//mclegal:alloc one-time warm-up growth; steady state reuses the buffer (see the 0 allocs/op benchmark)",
}

// allowedExternals are dependency functions without analyzable bodies
// that are known not to allocate on the hot path. Every entry must
// stay justified here:
//
//	sort.Search, slices.Sort, slices.SortFunc, cmp.Compare —
//	    comparison-based search/sort over caller storage; the
//	    comparator closures are stack-allocated (their parameters do
//	    not escape).
//	(*sync.Pool).Get / Put — the pool's per-P private/shared slots;
//	    Get allocates only through New, which the scratch pool pays
//	    during warm-up.
//	(*sync.Mutex).Lock / Unlock — spinning/futex, no heap traffic.
var allowedExternals = map[string]bool{
	"sort.Search":          true,
	"slices.Sort":          true,
	"slices.SortFunc":      true,
	"cmp.Compare":          true,
	"(*sync.Pool).Get":     true,
	"(*sync.Pool).Put":     true,
	"(*sync.Mutex).Lock":   true,
	"(*sync.Mutex).Unlock": true,
}

// hotState is the hot-path closure, computed once per program and
// shared by the findings and Roots.
type hotState struct {
	// roots are the root functions in name order; reasons holds each
	// one's directive justification.
	roots   []*framework.Node
	reasons map[*framework.Node]string
	// via maps every hot-reachable node to the root it was first
	// reached from (deterministic: roots processed in name order).
	via map[*framework.Node]*framework.Node
}

// Roots returns the //mclegal:hotpath root functions of the program in
// deterministic order; the root-set sync test uses it to pin the
// static proof to the dynamic one.
func Roots(prog *framework.Program) ([]*framework.Node, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	return st.roots, nil
}

func state(prog *framework.Program) (*hotState, error) {
	v, err := prog.CacheLoad("noalloc", func() (any, error) { return computeState(prog) })
	if err != nil {
		return nil, err
	}
	return v.(*hotState), nil
}

func computeState(prog *framework.Program) (*hotState, error) {
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	st := &hotState{
		reasons: make(map[*framework.Node]string),
		via:     make(map[*framework.Node]*framework.Node),
	}
	for _, n := range cg.Nodes() {
		if n.Decl == nil {
			continue
		}
		if reason, ok := framework.DocDirective(n.Decl.Doc, "hotpath"); ok {
			st.roots = append(st.roots, n)
			st.reasons[n] = reason
		}
	}
	// BFS from each root in name order, so `via` attribution is
	// deterministic. External and interface-method nodes terminate
	// the walk: they have no bodies; their edges are judged at the
	// call site.
	for _, root := range st.roots {
		if _, seen := st.via[root]; seen {
			continue
		}
		queue := []*framework.Node{root}
		st.via[root] = root
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Out {
				m := e.Callee
				if m == nil || m.Decl == nil {
					continue
				}
				if _, seen := st.via[m]; seen {
					continue
				}
				st.via[m] = root
				queue = append(queue, m)
			}
		}
	}
	return st, nil
}

func findings(prog *framework.Program) ([]framework.Finding, error) {
	st, err := state(prog)
	if err != nil {
		return nil, err
	}
	cg, err := prog.CallGraph()
	if err != nil {
		return nil, err
	}
	var out []framework.Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, framework.Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, n := range st.roots {
		if st.reasons[n] == "" {
			out = append(out, framework.Finding{Pos: n.Decl.Pos(), Binding: true,
				Message: "//mclegal:hotpath directive is missing a justification"})
		}
	}
	for _, n := range cg.Nodes() {
		root, hot := st.via[n]
		if !hot {
			continue
		}
		ctx := fmt.Sprintf("hot path via %s", root.Func.FullName())
		for _, site := range n.Summary().Allocs {
			if !site.Rooted {
				report(site.Pos, "%s: %s allocates on every call; pool it, root it in caller-owned storage, or justify with //mclegal:alloc <why>",
					ctx, site.Kind)
			}
		}
		seenIfaceSite := make(map[*framework.Edge]bool)
		for _, e := range n.Out {
			switch e.Kind {
			case framework.EdgeDynamic:
				report(e.Site.Pos(), "%s: indirect call of a function value cannot be proven allocation-free; justify with //mclegal:alloc <why>", ctx)
			case framework.EdgeInterface:
				// Edges come in groups per site: the interface method
				// itself plus one edge per implementation. Judge each
				// site once.
				if e.Callee != nil && e.Callee.Decl == nil && isInterfaceMethod(e.Callee.Func) {
					if !seenIfaceSite[e] && implCount(n, e) == 0 {
						report(e.Site.Pos(), "%s: interface call %s has no in-program implementation to prove; justify with //mclegal:alloc <why>",
							ctx, e.Callee.Func.Name())
					}
					seenIfaceSite[e] = true
				}
			case framework.EdgeStatic:
				if e.Callee.Decl == nil && !allowedExternals[e.Callee.Func.Origin().FullName()] {
					report(e.Site.Pos(), "%s: call into unsummarized external %s (no body to prove); extend the noalloc allow list or justify with //mclegal:alloc <why>",
						ctx, e.Callee.Func.FullName())
				}
			}
		}
	}
	return out, nil
}

// implCount counts concrete-implementation edges sharing the call site
// of the interface-method edge e.
func implCount(n *framework.Node, e *framework.Edge) int {
	count := 0
	for _, o := range n.Out {
		if o.Kind == framework.EdgeInterface && o.Site == e.Site && o != e && o.Callee != nil && o.Callee.Decl != nil {
			count++
		}
	}
	return count
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}
