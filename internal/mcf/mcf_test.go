package mcf

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// solveOnce runs the production entrypoint on a fresh Solver.
func solveOnce(g *Graph) (*Result, error) {
	return NewSolver().Solve(context.Background(), g)
}

// solveRule runs the simplex under an explicit pivot rule on a fresh
// Solver, bypassing the size-keyed choice of Solve.
func solveRule(g *Graph, rule pivotRule) (*Result, error) {
	return NewSolver().solve(context.Background(), g, rule)
}

func solveBoth(t *testing.T, g *Graph) (*Result, *Result) {
	t.Helper()
	rs, err := solveOnce(g)
	if err != nil {
		t.Fatalf("simplex: %v", err)
	}
	rp, err := g.SolveSSP()
	if err != nil {
		t.Fatalf("ssp: %v", err)
	}
	if err := g.VerifyOptimal(rs); err != nil {
		t.Fatalf("simplex solution invalid: %v", err)
	}
	if err := g.VerifyOptimal(rp); err != nil {
		t.Fatalf("ssp solution invalid: %v", err)
	}
	if rs.Cost != rp.Cost {
		t.Fatalf("simplex cost %d != ssp cost %d", rs.Cost, rp.Cost)
	}
	return rs, rp
}

func TestSimpleTransport(t *testing.T) {
	// 2 suppliers, 2 consumers; classic transportation optimum.
	g := NewGraph(4)
	g.SetSupply(0, 10)
	g.SetSupply(1, 5)
	g.SetSupply(2, -8)
	g.SetSupply(3, -7)
	g.AddArc(0, 2, 10, 3)
	g.AddArc(0, 3, 10, 1)
	g.AddArc(1, 2, 10, 2)
	g.AddArc(1, 3, 10, 4)
	rs, _ := solveBoth(t, g)
	// Optimal: 0->3: 7 (cost 7), 0->2: 3 (9), 1->2: 5 (10) = 26.
	if rs.Cost != 26 {
		t.Errorf("cost = %d, want 26", rs.Cost)
	}
}

func TestSingleArcPath(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 4)
	g.SetSupply(1, -4)
	g.AddArc(0, 1, 10, 7)
	rs, _ := solveBoth(t, g)
	if rs.Cost != 28 || rs.Flow[0] != 4 {
		t.Errorf("cost=%d flow=%v", rs.Cost, rs.Flow)
	}
}

func TestNegativeCycleCirculation(t *testing.T) {
	// A pure circulation (all supplies zero) with a profitable cycle:
	// the optimum saturates the cycle.
	g := NewGraph(3)
	g.AddArc(0, 1, 5, -4)
	g.AddArc(1, 2, 3, 1)
	g.AddArc(2, 0, 7, 1)
	rs, _ := solveBoth(t, g)
	// Cycle cost -2 per unit, bottleneck 3 => cost -6.
	if rs.Cost != -6 {
		t.Errorf("cost = %d, want -6", rs.Cost)
	}
	if rs.Flow[1] != 3 {
		t.Errorf("cycle not saturated: %v", rs.Flow)
	}
}

func TestNoProfitableCirculation(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 5, 2)
	g.AddArc(1, 2, 5, 2)
	g.AddArc(2, 0, 5, -3) // cycle cost +1: not profitable
	rs, _ := solveBoth(t, g)
	if rs.Cost != 0 {
		t.Errorf("cost = %d, want 0", rs.Cost)
	}
}

func TestInfeasibleDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.SetSupply(0, 5)
	g.SetSupply(2, -5)
	g.AddArc(0, 1, 10, 1) // node 2 unreachable
	if _, err := solveOnce(g); !errors.Is(err, ErrInfeasible) {
		t.Errorf("simplex err = %v, want infeasible", err)
	}
	if _, err := g.SolveSSP(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("ssp err = %v, want infeasible", err)
	}
}

func TestInfeasibleCapacity(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 5)
	g.SetSupply(1, -5)
	g.AddArc(0, 1, 3, 1)
	if _, err := solveOnce(g); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want infeasible", err)
	}
}

func TestUnbalancedSupplies(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 5)
	if _, err := solveOnce(g); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want infeasible", err)
	}
}

func TestSelfLoopNegative(t *testing.T) {
	g := NewGraph(1)
	g.AddArc(0, 0, 4, -2)
	rs, err := solveOnce(g)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cost != -8 || rs.Flow[0] != 4 {
		t.Errorf("self loop: cost=%d flow=%v", rs.Cost, rs.Flow)
	}
	if err := g.VerifyOptimal(rs); err != nil {
		t.Error(err)
	}
}

func TestZeroCapacityArc(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 1)
	g.SetSupply(1, -1)
	g.AddArc(0, 1, 0, -10)
	g.AddArc(0, 1, 5, 2)
	rs, _ := solveBoth(t, g)
	if rs.Cost != 2 || rs.Flow[0] != 0 {
		t.Errorf("zero-cap arc carried flow: %+v", rs)
	}
}

func TestParallelArcs(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 10)
	g.SetSupply(1, -10)
	g.AddArc(0, 1, 4, 1)
	g.AddArc(0, 1, 4, 3)
	g.AddArc(0, 1, 4, 2)
	rs, _ := solveBoth(t, g)
	// 4@1 + 4@2 + 2@3 = 18.
	if rs.Cost != 18 {
		t.Errorf("cost = %d, want 18", rs.Cost)
	}
}

func TestBothPivotRulesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 8, 20, true)
		r1, err1 := solveRule(g, firstEligible)
		r2, err2 := solveRule(g, candidateList)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: feasibility disagreement %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if r1.Cost != r2.Cost {
			t.Fatalf("trial %d: cost %d vs %d", trial, r1.Cost, r2.Cost)
		}
		if err := g.VerifyOptimal(r1); err != nil {
			t.Fatal(err)
		}
		if err := g.VerifyOptimal(r2); err != nil {
			t.Fatal(err)
		}
	}
}

// randomGraph builds a random instance; when balanced is true a random
// transshipment supply vector summing to zero is added.
func randomGraph(rng *rand.Rand, n, m int, balanced bool) *Graph {
	g := NewGraph(n)
	for a := 0; a < m; a++ {
		u, v := rng.Intn(n), rng.Intn(n)
		g.AddArc(u, v, int64(rng.Intn(10)), int64(rng.Intn(21)-10))
	}
	if balanced {
		for k := 0; k < n/2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			b := int64(rng.Intn(5))
			g.AddSupply(u, b)
			g.AddSupply(v, -b)
		}
	}
	return g
}

func TestRandomizedAgainstSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(9)
		m := 1 + rng.Intn(25)
		g := randomGraph(rng, n, m, trial%2 == 0)
		rs, errS := solveOnce(g)
		rp, errP := g.SolveSSP()
		if (errS == nil) != (errP == nil) {
			t.Fatalf("trial %d: simplex err %v, ssp err %v", trial, errS, errP)
		}
		if errS != nil {
			infeasible++
			continue
		}
		feasible++
		if rs.Cost != rp.Cost {
			t.Fatalf("trial %d: simplex %d != ssp %d", trial, rs.Cost, rp.Cost)
		}
		if err := g.VerifyOptimal(rs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g.VerifyOptimal(rp); err != nil {
			t.Fatalf("trial %d ssp: %v", trial, err)
		}
	}
	if feasible < 50 || infeasible < 10 {
		t.Logf("coverage: feasible=%d infeasible=%d", feasible, infeasible)
	}
}

func TestLargeChainPerformance(t *testing.T) {
	// A long path with supplies at both ends: exercises deep trees and
	// the re-rooting code.
	const n = 3000
	g := NewGraph(n)
	g.SetSupply(0, 100)
	g.SetSupply(n-1, -100)
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1, 200, int64(v%7)+1)
	}
	rs, err := solveOnce(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyOptimal(rs); err != nil {
		t.Fatal(err)
	}
	var want int64
	for v := 0; v+1 < n; v++ {
		want += 100 * (int64(v%7) + 1)
	}
	if rs.Cost != want {
		t.Errorf("chain cost = %d, want %d", rs.Cost, want)
	}
}

func TestVerifyOptimalCatchesBadResults(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 1)
	g.SetSupply(1, -1)
	g.AddArc(0, 1, 5, 3)
	rs, err := solveOnce(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{Flow: []int64{2}, Pi: rs.Pi, Cost: 6}
	if err := g.VerifyOptimal(bad); err == nil {
		t.Errorf("conservation violation not caught")
	}
	bad = &Result{Flow: rs.Flow, Pi: []int64{0, 100}, Cost: rs.Cost}
	if err := g.VerifyOptimal(bad); err == nil {
		t.Errorf("complementary slackness violation not caught")
	}
	bad = &Result{Flow: rs.Flow, Pi: rs.Pi, Cost: rs.Cost + 1}
	if err := g.VerifyOptimal(bad); err == nil {
		t.Errorf("cost mismatch not caught")
	}
}

func TestAddArcRecordsBuildError(t *testing.T) {
	g := NewGraph(1)
	if a := g.AddArc(0, 5, 1, 1); a != -1 {
		t.Errorf("out-of-range arc got index %d, want -1", a)
	}
	var be *BuildError
	if !errors.As(g.BuildErr(), &be) {
		t.Fatalf("BuildErr = %v, want *BuildError", g.BuildErr())
	}
	if be.From != 0 || be.To != 5 || be.Nodes != 1 {
		t.Errorf("build error fields = %+v", be)
	}
	// The first error wins; later mistakes don't overwrite it.
	if a := g.AddArc(0, 0, -1, 1); a != -1 {
		t.Errorf("negative-cap arc got index %d, want -1", a)
	}
	if got := g.BuildErr(); got != error(be) {
		t.Errorf("first error overwritten: %v", got)
	}
	// The invalid arcs were not appended.
	if g.NumArcs() != 0 {
		t.Errorf("invalid arcs appended: %d", g.NumArcs())
	}
	// Every solver refuses a malformed graph with the recorded error.
	if _, err := solveOnce(g); !errors.As(err, &be) {
		t.Errorf("Solve err = %v, want *BuildError", err)
	}
	if _, err := g.SolveSSP(); !errors.As(err, &be) {
		t.Errorf("SolveSSP err = %v, want *BuildError", err)
	}
	if _, err := g.SolveCostScaling(); !errors.As(err, &be) {
		t.Errorf("SolveCostScaling err = %v, want *BuildError", err)
	}
}

func TestNegativeCapacityBuildError(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, -1, 0)
	var be *BuildError
	if !errors.As(g.BuildErr(), &be) || be.Reason != "negative capacity" {
		t.Fatalf("BuildErr = %v", g.BuildErr())
	}
}

func TestAddNodeAndAccessors(t *testing.T) {
	g := NewGraph(0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 || g.NumNodes() != 2 {
		t.Fatalf("node ids wrong")
	}
	id := g.AddArc(a, b, 3, -2)
	if g.NumArcs() != 1 || g.Arc(id) != (Arc{From: 0, To: 1, Cap: 3, Cost: -2}) {
		t.Errorf("arc accessor wrong: %+v", g.Arc(id))
	}
}
