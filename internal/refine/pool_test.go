package refine

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/testutil"
)

// rowDesign returns a legal design of n cells on 16 rows: along each
// even/odd row pair, either a double-row cell or two single-row cells
// per column, with gaps, each cell a few sites from its GP.
func rowDesign(n int) *model.Design {
	const rows = 16
	d := newDesign(n/2+8, rows)
	rng := rand.New(rand.NewSource(int64(n)))
	for len(d.Cells) < n {
		for r := 0; r < rows && len(d.Cells) < n; r += 2 {
			x := 0
			for _, c := range d.Cells {
				if c.Y == r || c.Y == r+1 {
					x = max(x, c.X+d.Types[c.Type].Width+rng.Intn(2))
				}
			}
			if x+3 > d.Tech.NumSites {
				continue
			}
			gx := func() int { return max(0, x+rng.Intn(7)-3) }
			if rng.Intn(4) == 0 {
				place(d, 1, gx(), r+rng.Intn(3), x, r)
			} else {
				place(d, 0, gx(), r, x, r)
				place(d, 0, gx(), r+1, x, r+1)
			}
		}
	}
	return d
}

// A refinement reuses its pooled workspace: once it is warm, runs on
// the same design do not allocate, whatever its size. GC is off during
// the measurement, so the pool keeps its workspace.
func TestReusedRefineAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race; counts are meaningless there")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{200, 2000} {
		d := rowDesign(n)
		grid := mustGrid(t, d)
		for _, opt := range []Options{{}, {Weights: WeightUniform, MaxDispWeight: 4}} {
			run := func() {
				if _, err := Optimize(d, grid, opt); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%d cells, %+v: a reused refinement allocates %.1f times, want 0", n, opt, allocs)
			}
		}
	}
}

// Two goroutines refining different designs through the shared pool
// get exactly the placements and reports of sequential runs.
func TestConcurrentRefinesMatchSequential(t *testing.T) {
	type run struct {
		d    *model.Design
		grid *seg.Grid
		xs   []int
		rep  Report
	}
	runs := []*run{{d: rowDesign(300)}, {d: rowDesign(900)}}
	opt := Options{MaxDispWeight: 4}
	xs := func(d *model.Design) []int {
		out := make([]int, len(d.Cells))
		for i := range d.Cells {
			out[i] = d.Cells[i].X
		}
		return out
	}
	for _, r := range runs {
		r.grid = mustGrid(t, r.d)
		dc := r.d.Clone()
		rep, err := Optimize(dc, r.grid, opt)
		if err != nil {
			t.Fatal(err)
		}
		r.rep, r.xs = rep, xs(dc)
		r.rep.SolveNs = 0
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				dc := r.d.Clone()
				rep, err := Optimize(dc, r.grid, opt)
				rep.SolveNs = 0
				if err != nil || rep != r.rep || !slices.Equal(xs(dc), r.xs) {
					t.Errorf("%d cells: concurrent run (%+v, %v) differs from the sequential one (%+v)",
						len(r.d.Cells), rep, err, r.rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}
