package analysis_test

import (
	"go/types"
	"testing"

	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/noalloc"
)

// TestHotPathRootsMatchDynamicProof pins the static noalloc proof to
// the dynamic ones. Each //mclegal:hotpath call tree has a
// testing.AllocsPerRun witness measuring an anchor function whose call
// tree contains it:
//
//	(*mgl.Legalizer).bestInWindow  — mgl.TestBestInWindowZeroAlloc
//	(*mcf.Solver).Solve            — mcf.TestReusedColdSolveZeroAlloc
//	                                 (root: (*simplex).runPivots, inside Solve)
//	(*matching.Solver).Solve       — matching.TestSolverReuseZeroAlloc
//	                                 (root: augmentRow, inside Solve)
//
// Every anchor marked mustBeRoot must itself carry the hotpath
// annotation, every anchor's call tree must contain a root, and every
// root must be reachable from some anchor — otherwise the static proof
// would claim coverage no benchmark actually measures, and the two
// could silently drift apart.
func TestHotPathRootsMatchDynamicProof(t *testing.T) {
	prog := loadScopedProgram(t)
	cg, err := prog.CallGraph()
	if err != nil {
		t.Fatalf("building call graph: %v", err)
	}
	roots, err := noalloc.Roots(prog)
	if err != nil {
		t.Fatalf("collecting hotpath roots: %v", err)
	}
	if len(roots) == 0 {
		t.Fatal("no //mclegal:hotpath roots found; the noalloc analyzer is proving nothing")
	}

	anchors := []struct {
		pkg, typ, method string
		mustBeRoot       bool
		witness          string
	}{
		{"mclegal/internal/mgl", "Legalizer", "bestInWindow", true, "mgl.TestBestInWindowZeroAlloc"},
		{"mclegal/internal/mcf", "Solver", "Solve", false, "mcf.TestReusedColdSolveZeroAlloc"},
		{"mclegal/internal/matching", "Solver", "Solve", false, "matching.TestSolverReuseZeroAlloc"},
	}

	isRoot := map[*framework.Node]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	reach := map[*framework.Node]bool{}
	for _, a := range anchors {
		pkg := prog.Package(a.pkg)
		if pkg == nil {
			t.Fatalf("%s not in the scoped program", a.pkg)
		}
		tn, _ := pkg.Types.Scope().Lookup(a.typ).(*types.TypeName)
		if tn == nil {
			t.Fatalf("%s.%s not found", a.pkg, a.typ)
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, a.method)
		fn, _ := obj.(*types.Func)
		if fn == nil {
			t.Fatalf("(*%s.%s).%s not found", a.pkg, a.typ, a.method)
		}
		node := cg.Node(fn)
		if node == nil {
			t.Fatalf("%s has no call-graph node", fn.FullName())
		}
		if a.mustBeRoot && !isRoot[node] {
			t.Errorf("%s is not a //mclegal:hotpath root; the static proof no longer covers what %s measures",
				fn.FullName(), a.witness)
		}

		// BFS from the anchor over in-program edges.
		seen := map[*framework.Node]bool{node: true}
		coversRoot := isRoot[node]
		queue := []*framework.Node{node}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Out {
				if e.Callee == nil || e.Callee.External() || seen[e.Callee] {
					continue
				}
				seen[e.Callee] = true
				coversRoot = coversRoot || isRoot[e.Callee]
				queue = append(queue, e.Callee)
			}
		}
		if !coversRoot {
			t.Errorf("%s reaches no //mclegal:hotpath root; the static proof covers nothing %s measures",
				fn.FullName(), a.witness)
		}
		for n := range seen {
			reach[n] = true
		}
	}
	for _, r := range roots {
		if !reach[r] {
			t.Errorf("root %s is not reachable from any dynamic-proof anchor: no benchmark exercises it, so its zero-alloc claim has no runtime witness",
				r.Func.FullName())
		}
	}
}
