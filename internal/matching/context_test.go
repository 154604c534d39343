package matching

import (
	"context"
	"errors"
	"testing"
)

func TestMinCostPerfectContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cost := func(i, j int) int64 { return int64(i*3 + j) }
	var sv Solver
	_, _, _, err := sv.Solve(ctx, 16, cost)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestMinCostPerfectContextClean(t *testing.T) {
	cost := [][]int64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	fn := func(i, j int) int64 { return cost[i][j] }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sv Solver
	_, total, ok, err := sv.Solve(ctx, 3, fn)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v, want solved", ok, err)
	}
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	// A live ctx only adds polling: a ctx that can never be cancelled
	// produces the same optimum.
	_, pTotal, pOK := solve(3, fn)
	if !pOK || pTotal != total {
		t.Errorf("background-ctx total=%d ok=%v, want %d true", pTotal, pOK, total)
	}
}
