package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the optimum is invariant under row/column permutations.
func TestQuickPermutationInvariance(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 2
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(100))
			}
		}
		_, base, ok := solveMatrix(cost)
		if !ok {
			return false
		}
		// Shuffle rows and columns.
		rp := rng.Perm(n)
		cp := rng.Perm(n)
		shuffled := make([][]int64, n)
		for i := range shuffled {
			shuffled[i] = make([]int64, n)
			for j := range shuffled[i] {
				shuffled[i][j] = cost[rp[i]][cp[j]]
			}
		}
		_, got, ok := solveMatrix(shuffled)
		return ok && got == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adding a constant to every entry of one row shifts the
// optimum by exactly that constant.
func TestQuickRowConstantShift(t *testing.T) {
	f := func(seed int64, nRaw, deltaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 2
		delta := int64(deltaRaw % 50)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(100))
			}
		}
		_, base, ok := solveMatrix(cost)
		if !ok {
			return false
		}
		row := rng.Intn(n)
		for j := range cost[row] {
			cost[row][j] += delta
		}
		_, got, ok := solveMatrix(cost)
		return ok && got == base+delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the optimum never exceeds the identity assignment's cost
// and never beats the sum of per-row minima.
func TestQuickOptimumBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		cost := make([][]int64, n)
		var diag, rowMin int64
		for i := range cost {
			cost[i] = make([]int64, n)
			m := int64(1 << 60)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(1000))
				if cost[i][j] < m {
					m = cost[i][j]
				}
			}
			diag += cost[i][i]
			rowMin += m
		}
		_, got, ok := solveMatrix(cost)
		return ok && got <= diag && got >= rowMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
