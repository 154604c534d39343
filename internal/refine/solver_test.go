package refine

import (
	"context"
	"math/rand"
	"testing"

	"mclegal/internal/mcf"
	"mclegal/internal/model"
)

// The report must describe the solve: the network size, the pivot
// count, and a solve-time figure.
func TestReportSolverCounters(t *testing.T) {
	d := newDesign(60, 2)
	place(d, 0, 5, 0, 10, 0)
	place(d, 0, 20, 0, 25, 0)
	place(d, 0, 40, 1, 44, 1)
	rep := optimize(t, d, Options{Weights: WeightUniform})
	if rep.Nodes != 4 || rep.Arcs < 12 {
		t.Errorf("network = %d nodes / %d arcs, want 4 nodes and at least 12 arcs", rep.Nodes, rep.Arcs)
	}
	if rep.Pivots <= 0 {
		t.Errorf("pivots = %d, want > 0: every cell starts off its GP", rep.Pivots)
	}
	if rep.Moved != 3 {
		t.Errorf("moved = %d, want 3", rep.Moved)
	}
	if rep.SolveNs < 0 {
		t.Errorf("SolveNs = %d, want >= 0", rep.SolveNs)
	}
}

// A caller-provided Solver is reused across refinement runs. Every
// solve starts cold, so the second run on the already-refined design
// makes no moves, and a run on a reused Solver places exactly like a
// run on a private one.
func TestSolverReuseAcrossRuns(t *testing.T) {
	build := func() *model.Design {
		rng := rand.New(rand.NewSource(3))
		d := newDesign(300, 4)
		x := 0
		for i := 0; i < 40; i++ {
			w := 2 // type 0 width
			x += w + rng.Intn(4)
			if x+w >= 300 {
				break
			}
			place(d, 0, x-rng.Intn(5), i%4, x, i%4)
		}
		return d
	}
	d := build()
	grid := mustGrid(t, d)
	sv := mcf.NewSolver()
	opt := Options{Weights: WeightUniform, Solver: sv}
	rep1, err := OptimizeContext(context.Background(), d, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Moved == 0 {
		t.Fatal("first run moved nothing; the instance does not exercise the solver")
	}
	rep2, err := OptimizeContext(context.Background(), d, grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Moved != 0 {
		t.Errorf("second run moved %d cells; the first run's optimum should be stable", rep2.Moved)
	}

	fresh := build()
	if _, err := OptimizeContext(context.Background(), fresh, mustGrid(t, fresh), Options{Weights: WeightUniform}); err != nil {
		t.Fatal(err)
	}
	for i := range d.Cells {
		if d.Cells[i].X != fresh.Cells[i].X {
			t.Fatalf("cell %d: reused-solver x %d, private-solver x %d", i, d.Cells[i].X, fresh.Cells[i].X)
		}
	}
}
