package mcf

import (
	"context"
	"errors"
	"testing"
)

func transportGraph() *Graph {
	g := NewGraph(4)
	g.SetSupply(0, 10)
	g.SetSupply(1, 5)
	g.SetSupply(2, -8)
	g.SetSupply(3, -7)
	g.AddArc(0, 2, 10, 3)
	g.AddArc(0, 3, 10, 1)
	g.AddArc(1, 2, 10, 2)
	g.AddArc(1, 3, 10, 4)
	return g
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSolver().Solve(ctx, transportGraph())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSolveContextClean(t *testing.T) {
	sv := NewSolver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := sv.Solve(ctx, transportGraph())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Cost != 26 {
		t.Errorf("cost = %d, want 26", res.Cost)
	}
	// A live ctx only adds polling: the same Solver reaches the same
	// optimum under a ctx that can never be cancelled.
	again, err := sv.Solve(context.Background(), transportGraph())
	if err != nil || again.Cost != 26 {
		t.Errorf("re-solve: cost %v err %v, want 26", again, err)
	}
}
