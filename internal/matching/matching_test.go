package matching

import (
	"context"
	"math/rand"
	"testing"

	"mclegal/internal/mcf"
)

// solve runs Solve on a fresh Solver. A background context is never
// done, so Solve's error is always nil here.
func solve(n int, cost func(i, j int) int64) (assign []int, total int64, ok bool) {
	var sv Solver
	assign, total, ok, _ = sv.Solve(context.Background(), n, cost)
	return assign, total, ok
}

// solveMatrix is solve over an explicit cost matrix.
func solveMatrix(cost [][]int64) (assign []int, total int64, ok bool) {
	return solve(len(cost), func(i, j int) int64 { return cost[i][j] })
}

// bruteForce enumerates all permutations (n <= 8) for the exact
// optimum, skipping Forbidden pairs.
func bruteForce(cost [][]int64) (int64, bool) {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := int64(1) << 62
	found := false
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var s int64
			for r, c := range perm {
				if cost[r][c] >= Forbidden {
					return
				}
				s += cost[r][c]
			}
			if s < best {
				best = s
			}
			found = true
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best, found
}

func TestTinyKnown(t *testing.T) {
	cost := [][]int64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, ok := solveMatrix(cost)
	if !ok {
		t.Fatal("no matching found")
	}
	if total != 5 { // 1 + 2 + 2
		t.Errorf("total = %d, want 5", total)
	}
	seen := map[int]bool{}
	for _, j := range assign {
		if seen[j] {
			t.Fatalf("assign is not a permutation: %v", assign)
		}
		seen[j] = true
	}
}

func TestIdentityOptimal(t *testing.T) {
	// Zero diagonal, positive elsewhere: identity must win.
	n := 6
	assign, total, ok := solve(n, func(i, j int) int64 {
		if i == j {
			return 0
		}
		return 10
	})
	if !ok || total != 0 {
		t.Fatalf("total=%d ok=%v", total, ok)
	}
	for i, j := range assign {
		if i != j {
			t.Errorf("assign[%d] = %d", i, j)
		}
	}
}

func TestEmpty(t *testing.T) {
	assign, total, ok := solve(0, nil)
	if !ok || total != 0 || assign != nil {
		t.Errorf("empty case: %v %d %v", assign, total, ok)
	}
}

func TestSingle(t *testing.T) {
	assign, total, ok := solve(1, func(i, j int) int64 { return 7 })
	if !ok || total != 7 || assign[0] != 0 {
		t.Errorf("single case wrong: %v %d %v", assign, total, ok)
	}
}

func TestForbiddenForcesAlternative(t *testing.T) {
	cost := [][]int64{
		{Forbidden, 1},
		{1, 100},
	}
	assign, total, ok := solveMatrix(cost)
	if !ok {
		t.Fatal("matching should exist")
	}
	if total != 2 || assign[0] != 1 || assign[1] != 0 {
		t.Errorf("assign=%v total=%d", assign, total)
	}
}

func TestInfeasibleAllForbidden(t *testing.T) {
	cost := [][]int64{
		{Forbidden, Forbidden},
		{1, 2},
	}
	if _, _, ok := solveMatrix(cost); ok {
		t.Errorf("infeasible instance reported ok")
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				if rng.Intn(10) == 0 {
					cost[i][j] = Forbidden
				} else {
					cost[i][j] = int64(rng.Intn(50))
				}
			}
		}
		want, feasible := bruteForce(cost)
		assign, got, ok := solveMatrix(cost)
		if ok != feasible {
			t.Fatalf("trial %d: ok=%v feasible=%v", trial, ok, feasible)
		}
		if !ok {
			continue
		}
		if got != want {
			t.Fatalf("trial %d: got %d, want %d (cost=%v)", trial, got, want, cost)
		}
		used := make([]bool, n)
		var check int64
		for i, j := range assign {
			if used[j] {
				t.Fatalf("trial %d: duplicate column", trial)
			}
			used[j] = true
			check += cost[i][j]
		}
		if check != got {
			t.Fatalf("trial %d: reported total %d != recomputed %d", trial, got, check)
		}
	}
}

// Cross-check against the generic MCF solver on larger instances.
func TestRandomAgainstMCF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(1000))
			}
		}
		_, got, ok := solveMatrix(cost)
		if !ok {
			t.Fatalf("trial %d infeasible", trial)
		}

		g := mcf.NewGraph(2 * n)
		for i := 0; i < n; i++ {
			g.SetSupply(i, 1)
			g.SetSupply(n+i, -1)
			for j := 0; j < n; j++ {
				g.AddArc(i, n+j, 1, cost[i][j])
			}
		}
		res, err := mcf.NewSolver().Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d mcf: %v", trial, err)
		}
		if res.Cost != got {
			t.Fatalf("trial %d: hungarian %d != mcf %d", trial, got, res.Cost)
		}
	}
}

func TestNegativeCosts(t *testing.T) {
	cost := [][]int64{
		{-5, 0},
		{0, -5},
	}
	_, total, ok := solveMatrix(cost)
	if !ok || total != -10 {
		t.Errorf("negative costs: total=%d ok=%v", total, ok)
	}
}

func BenchmarkMatching200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	cost := make([][]int64, n)
	for i := range cost {
		cost[i] = make([]int64, n)
		for j := range cost[i] {
			cost[i][j] = int64(rng.Intn(10000))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := solveMatrix(cost); !ok {
			b.Fatal("infeasible")
		}
	}
}
