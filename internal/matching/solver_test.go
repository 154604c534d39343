package matching

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = int64(rng.Intn(1000))
		}
	}
	return m
}

// A reused Solver must match a fresh Solver byte-for-byte across a
// randomized sequence of instance sizes, including infeasible ones.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sv Solver
	for it := 0; it < 50; it++ {
		n := 1 + rng.Intn(24)
		m := randomMatrix(rng, n)
		if it%5 == 0 {
			// Sprinkle Forbidden pairs; some instances become infeasible.
			for k := 0; k < n; k++ {
				m[rng.Intn(n)][rng.Intn(n)] = Forbidden
			}
		}
		cost := func(i, j int) int64 { return m[i][j] }
		wantA, wantT, wantOK := solve(n, cost)
		gotA, gotT, gotOK, err := sv.Solve(context.Background(), n, cost)
		if err != nil || wantOK != gotOK || wantT != gotT || !slices.Equal(wantA, gotA) {
			t.Fatalf("it %d (n=%d): reused (%v,%d,%v,%v) != fresh (%v,%d,%v)",
				it, n, gotA, gotT, gotOK, err, wantA, wantT, wantOK)
		}
	}
}

// Property: Solver reuse is byte-identical to fresh solves for
// arbitrary matrices.
func TestQuickSolverReuseByteIdentical(t *testing.T) {
	var sv Solver
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 1
		m := randomMatrix(rng, n)
		cost := func(i, j int) int64 { return m[i][j] }
		wantA, wantT, wantOK := solve(n, cost)
		gotA, gotT, gotOK, err := sv.Solve(context.Background(), n, cost)
		return err == nil && wantOK == gotOK && wantT == gotT && slices.Equal(wantA, gotA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A reused Solver performs zero heap allocations per solve once its
// arrays fit the instance size. This is the dynamic witness the static
// noalloc proof (root: (*Solver).augmentRow, under (*Solver).Solve) is
// pinned to by analysis.TestHotPathRootsMatchDynamicProof.
func TestSolverReuseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 64
	m := randomMatrix(rng, n)
	cost := func(i, j int) int64 { return m[i][j] }
	ctx := context.Background()
	var sv Solver
	if _, _, ok, err := sv.Solve(ctx, n, cost); !ok || err != nil {
		t.Fatalf("warm-up solve failed: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, ok, err := sv.Solve(ctx, n, cost); !ok || err != nil {
			t.Fatalf("solve failed: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("reused solve allocates %.1f times per op, want 0", allocs)
	}
}
