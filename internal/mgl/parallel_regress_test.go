package mgl

import (
	"errors"
	"math/rand"
	"testing"

	"mclegal/internal/eval"
	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Regression for a parallel-scheduler bug: a chain cell whose
// compression barrier came from a non-local neighbor could be pushed
// past its window's edge, colliding with a concurrent batch member's
// placement in the adjacent window. Dense instances with many multi-row
// cells, small windows and forbidden rows maximize batch pressure at
// window seams.
func TestParallelSeamRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	for trial := 0; trial < 6; trial++ {
		d := newDesign(200, 20)
		// ~72% utilization with a tall-cell-heavy mix.
		area := 0
		for area < 200*20*72/100 {
			ti := model.CellTypeID(rng.Intn(len(d.Types)))
			ct := d.Types[ti]
			gx := rng.Intn(200 - ct.Width)
			gy := rng.Intn(20 - ct.Height)
			addCell(d, ti, gx, gy, 0)
			area += ct.Width * ct.Height
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		l := New(d, grid, Options{
			Workers:  4,
			BatchCap: 16,
			// Tiny windows force many adjacent windows per batch.
			WindowW: 6, WindowH: 2,
			Rules: fakeRules{
				rowBad: func(ct model.CellTypeID, y int) bool {
					// Forbid one row phase for one type to force
					// retries and window growth.
					return ct == 0 && y%5 == 0
				},
			},
		})
		if err := l.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := eval.Audit(d, grid); len(v) > 0 {
			t.Fatalf("trial %d: %v (of %d)", trial, v[0], len(v))
		}
	}
}

// A worker's scratch outlives its run: the next run takes it from
// scratchPool with the last window memo of the earlier run still in
// it. Row tasks of one window share a memo within an evaluate call, so
// a memo key that survived the earlier run would let the next run's
// evaluate call of the same number reuse another design's memo. The
// first design here runs one batch and the second runs ten, so the
// second's first batch carries the first's only key. The scheduler's
// scratch goes back to scratchPool last, so the next run takes it
// first. In the first design blockages cut the row into two-site
// segments, and in the second the row is one segment: a stale memo
// says the second design's row has room for no five-site cell.
// BatchCap 1 splits every batch at Workers 2 and up, and windows as
// large as the core keep every cell in one window.
func TestParallelScratchCarriedAcrossRuns(t *testing.T) {
	first := newDesign(40, 1)
	for x := 2; x < 40; x += 3 {
		first.Blockages = append(first.Blockages, geom.RectWH(x, 0, 1, 1))
	}
	addCell(first, 0, 0, 0, 0)
	second := newDesign(80, 1)
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 10; i++ {
		addCell(second, 3, rng.Intn(75), 0, 0)
	}
	designs := []*model.Design{first, second}
	opt := Options{BatchCap: 1, WindowW: 1 << 10, WindowH: 1 << 10}
	want := make([]*model.Design, len(designs))
	for k, d := range designs {
		want[k] = d.Clone()
		opt.Workers = 1
		runMGL(t, want[k], opt)
	}
	for _, w := range []int{2, 3, 8} {
		batches := make([]int, len(designs))
		for k, d := range designs {
			got := d.Clone()
			opt.Workers = w
			batches[k] = runMGL(t, got, opt).Stats.Batches
			for i := range got.Cells {
				if g, r := got.Cells[i], want[k].Cells[i]; g.X != r.X || g.Y != r.Y {
					t.Fatalf("Workers %d, design %d: cell %d at (%d, %d), at Workers 1 (%d, %d)",
						w, k, i, g.X, g.Y, r.X, r.Y)
				}
			}
		}
		if batches[0] != 1 || batches[1] <= batches[0] {
			t.Fatalf("the designs ran %v batches; want 1, then more", batches)
		}
	}
}

// A 132-cell case where MGL strands a cell in a dense region: the
// design legalizes completely when every batch holds one cell, but at
// the default BatchCap the run stops with cell 38 unplaced. This is not
// des_perf_1's failure (ROADMAP item 1): the design has no routability
// rules, so restricted-first ordering leaves it failing. The multi-row
// cells of row 11 also span rows 10 or 12, which have almost no free
// sites, so row 11's free sites cannot merge into one gap wide enough
// for the cell; whether MGL succeeds is greedy luck. ROADMAP item 1's
// "A second case" paragraph records the analysis. Only a repair that
// moves committed cells between rows would flip the second assertion.
func TestDenseBatchStrandsCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1907))
	var d *model.Design
	for range 9 {
		d = randomDesign(rng, 80+rng.Intn(30), 10+rng.Intn(4), 112+rng.Intn(25), true)
	}
	if len(d.Cells) != 132 || d.Tech.NumSites != 89 || d.Tech.NumRows != 13 {
		t.Fatalf("design has %d cells on %d sites x %d rows, want 132 on 89 x 13",
			len(d.Cells), d.Tech.NumSites, d.Tech.NumRows)
	}
	d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 2}}
	for i := range d.Types {
		d.Types[i].EdgeL = uint8(i % 2)
		d.Types[i].EdgeR = uint8((i + 1) % 2)
	}
	run := func(batchCap int) (*Legalizer, error) {
		dc := d.Clone()
		grid, err := seg.Build(dc)
		if err != nil {
			t.Fatal(err)
		}
		l := New(dc, grid, Options{Workers: 1, BatchCap: batchCap})
		err = l.Run()
		if err == nil {
			if v := eval.Audit(dc, grid); len(v) > 0 {
				t.Fatalf("BatchCap %d: %v (of %d)", batchCap, v[0], len(v))
			}
		}
		return l, err
	}

	if l, err := run(1); err != nil || l.Stats.Placed != 132 {
		t.Fatalf("BatchCap 1: placed %d of 132, err %v", l.Stats.Placed, err)
	}
	l, err := run(0)
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Cell != 38 || l.Stats.Placed != 131 {
		t.Fatalf("default BatchCap: placed %d, err %v; want 131 and cell 38 infeasible (ROADMAP item 1, second case)",
			l.Stats.Placed, err)
	}
}
