package mcf

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// allRules are the pivot rules Solve chooses between.
var allRules = []pivotRule{firstEligible, candidateList}

var ruleNames = map[pivotRule]string{
	firstEligible: "first-eligible",
	candidateList: "candidate-list",
}

// sameResult asserts byte-for-byte equality of two results.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Cost != b.Cost || a.Pivots != b.Pivots ||
		!slices.Equal(a.Flow, b.Flow) || !slices.Equal(a.Pi, b.Pi) {
		t.Fatalf("%s: results differ: cost %d vs %d, pivots %d vs %d", label, a.Cost, b.Cost, a.Pivots, b.Pivots)
	}
}

// A reused Solver must match a fresh Solver byte-for-byte on every
// instance of a randomized sequence, under both pivot rules.
func TestSolverReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for _, rule := range allRules {
		reused := NewSolver()
		for it := 0; it < 40; it++ {
			n := 2 + rng.Intn(30)
			m := 1 + rng.Intn(80)
			g := randomGraph(rng, n, m, true)
			fr, ferr := NewSolver().solve(ctx, g, rule)
			rr, rerr := reused.solve(ctx, g, rule)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("rule %s it %d: fresh err %v, reused err %v", ruleNames[rule], it, ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			sameResult(t, ruleNames[rule], fr, rr)
			if err := g.VerifyOptimal(rr); err != nil {
				t.Fatalf("rule %s it %d: %v", ruleNames[rule], it, err)
			}
		}
	}
}

// Both pivot rules and all three solvers (simplex, cost scaling, SSP)
// agree on the optimal cost of the benchmark graph families; the
// quick-check variant in quick_test.go covers arbitrary random graphs.
func TestAllRulesAndSolversAgreeOnFamilies(t *testing.T) {
	graphs := map[string]*Graph{
		"refinement":  RefinementGraph(120, 3),
		"assignment":  AssignmentGraph(24, 4),
		"circulation": CirculationGraph(60, 240, 5),
	}
	for name, g := range graphs {
		var want int64
		for i, rule := range allRules {
			res, err := solveRule(g, rule)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, ruleNames[rule], err)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatalf("%s/%s: %v", name, ruleNames[rule], err)
			}
			if i == 0 {
				want = res.Cost
			} else if res.Cost != want {
				t.Fatalf("%s/%s: cost %d, want %d", name, ruleNames[rule], res.Cost, want)
			}
		}
		if res, err := g.SolveSSP(); err != nil || res.Cost != want {
			t.Fatalf("%s/ssp: cost %v err %v, want %d", name, res, err, want)
		}
		if res, err := g.SolveCostScaling(); err != nil || res.Cost != want {
			t.Fatalf("%s/costscaling: cost %v err %v, want %d", name, res, err, want)
		}
	}
}

// Solve keys the pivot rule on the instance size: first-eligible up to
// autoArcThreshold total arcs, candidate-list above it. Solve's result
// must be byte-identical to the explicitly ruled solve it maps to.
func TestAutoRuleResolution(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		g    *Graph
		want pivotRule
	}{
		{RefinementGraph(100, 1), firstEligible},  // well under the threshold
		{RefinementGraph(2000, 1), candidateList}, // ~9000 arcs: over it
	} {
		total := tc.g.NumArcs() + tc.g.NumNodes()
		if got := ruleFor(total); got != tc.want {
			t.Errorf("%d total arcs: rule %s, want %s", total, ruleNames[got], ruleNames[tc.want])
		}
		auto, err := NewSolver().Solve(ctx, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := solveRule(tc.g, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, ruleNames[tc.want], auto, explicit)
	}
	if ruleFor(autoArcThreshold) != firstEligible || ruleFor(autoArcThreshold+1) != candidateList {
		t.Errorf("threshold boundary: %s at %d, %s at %d", ruleNames[ruleFor(autoArcThreshold)],
			autoArcThreshold, ruleNames[ruleFor(autoArcThreshold+1)], autoArcThreshold+1)
	}
}

// A reused Solver's solves stop allocating once its arrays fit the
// instance shape, on both sides of autoArcThreshold: the small
// instance runs first-eligible, the large one candidate-list (the rule
// the largest production refine networks take). This is the dynamic
// witness the static noalloc proof (root: (*simplex).runPivots, under
// (*Solver).Solve) is pinned to by
// analysis.TestHotPathRootsMatchDynamicProof.
func TestReusedColdSolveZeroAlloc(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		g    *Graph
		rule pivotRule
	}{
		{RefinementGraph(300, 13), firstEligible},
		{RefinementGraph(1000, 13), candidateList},
	} {
		if got := ruleFor(tc.g.NumArcs() + tc.g.NumNodes()); got != tc.rule {
			t.Fatalf("instance takes %s, want %s", ruleNames[got], ruleNames[tc.rule])
		}
		var sv Solver
		for i := 0; i < 4; i++ {
			if _, err := sv.Solve(ctx, tc.g); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sv.Solve(ctx, tc.g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: reused solve allocates %.1f times per op, want 0", ruleNames[tc.rule], allocs)
		}
	}
}
