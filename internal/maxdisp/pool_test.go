package maxdisp

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/testutil"
)

// groupDesign returns n cells of two types in two fences, each up to
// 20 rows from its GP, so that every group has swaps to make.
func groupDesign(n int) *model.Design {
	d := newDesign()
	d.Tech.NumRows = n/5 + 40
	rng := rand.New(rand.NewSource(int64(n)))
	for range n {
		gx, gy := rng.Intn(98), 20+rng.Intn(n/5)
		x, y := rng.Intn(98), gy+rng.Intn(41)-20
		place(d, model.CellTypeID(rng.Intn(2)), gx, gy, x, y, model.FenceID(rng.Intn(2)))
	}
	return d
}

func positions(d *model.Design) []geom.Pt {
	out := make([]geom.Pt, len(d.Cells))
	for i := range d.Cells {
		out[i] = geom.Pt{X: d.Cells[i].X, Y: d.Cells[i].Y}
	}
	return out
}

// The optimization reuses its pooled workspace and the matching
// solver's cost matrix: once they are warm, runs on the same design do
// not allocate, whatever the number of cells and groups. GC is off
// during the measurement, so the pool keeps its workspace.
func TestReusedMaxDispAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race; counts are meaningless there")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{100, 2000} {
		d := groupDesign(n)
		opt := Options{MaxGroup: 150}
		if st := Optimize(d, opt); st.Swapped == 0 {
			t.Fatalf("%d cells: no swaps; the design exercises nothing", n)
		}
		if allocs := testing.AllocsPerRun(10, func() { Optimize(d, opt) }); allocs != 0 {
			t.Errorf("%d cells: a reused optimization allocates %.1f times, want 0", n, allocs)
		}
	}
}

// Two goroutines optimizing different designs through the shared pool
// get exactly the placements and stats of sequential runs.
func TestConcurrentOptimizationsMatchSequential(t *testing.T) {
	type run struct {
		d   *model.Design
		pos []geom.Pt
		st  Stats
	}
	runs := []*run{{d: groupDesign(300)}, {d: groupDesign(900)}}
	opt := Options{MaxGroup: 200}
	for _, r := range runs {
		dc := r.d.Clone()
		r.st = Optimize(dc, opt)
		r.pos = positions(dc)
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				dc := r.d.Clone()
				st := Optimize(dc, opt)
				if st != r.st || !slices.Equal(positions(dc), r.pos) {
					t.Errorf("%d cells: concurrent run %+v differs from the sequential one %+v", len(r.d.Cells), st, r.st)
					return
				}
			}
		}()
	}
	wg.Wait()
}
