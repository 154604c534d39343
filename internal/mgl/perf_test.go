package mgl

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/testutil"
)

// The prefix-width arrays must stay an exact prefix sum of the cell
// widths of every segment after arbitrary insertion orders; the insert
// fast path (one shift-and-add tail pass) is checked against a naive
// recomputation from the occupancy lists.
func TestPrefixWidthMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 20; trial++ {
		d := newDesign(200, 8)
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		// Random non-overlapping cells of mixed widths/heights, placed
		// row by row, inserted in shuffled order.
		var ids []model.CellID
		for y := 0; y < 8; y++ {
			x := rng.Intn(3)
			for {
				ti := model.CellTypeID(rng.Intn(len(d.Types)))
				ct := d.Types[ti]
				if x+ct.Width > 200 || y+ct.Height > 8 {
					break
				}
				id := addCell(d, ti, x, y, 0)
				d.Cells[id].X, d.Cells[id].Y = x, y
				ids = append(ids, id)
				x += ct.Width + rng.Intn(4)
			}
		}
		occ := newOcc(d, grid)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for n, id := range ids {
			if err := occ.insert(id); err != nil {
				t.Fatalf("trial %d: insert %d: %v", trial, id, err)
			}
			// Check every touched segment against the naive prefix sum.
			c := &d.Cells[id]
			ct := &d.Types[c.Type]
			for r := c.Y; r < c.Y+ct.Height; r++ {
				s, ok := grid.At(r, c.X)
				if !ok {
					t.Fatalf("trial %d: no segment at (%d,%d)", trial, r, c.X)
				}
				lst := occ.cellsIn(int32(s.ID))
				pw := occ.prefW[s.ID]
				if len(pw) != len(lst)+1 {
					t.Fatalf("trial %d after %d inserts: prefW len %d, want %d",
						trial, n+1, len(pw), len(lst)+1)
				}
				var sum int32
				if pw[0] != 0 {
					t.Fatalf("trial %d: prefW[0] = %d", trial, pw[0])
				}
				for k, cid := range lst {
					sum += int32(d.Types[d.Cells[cid].Type].Width)
					if pw[k+1] != sum {
						t.Fatalf("trial %d after %d inserts: prefW[%d] = %d, want %d",
							trial, n+1, k+1, pw[k+1], sum)
					}
				}
			}
		}
	}
}

// A warm window evaluation must not touch the heap: the scratch pool
// owns every buffer (rows are enumerated without storage, reps, chain
// memos, frontiers, curve breakpoints and moves are reused). GC is
// disabled during the measurement so a pool flush cannot produce a
// false positive. The second case caps chains at two cells, so that
// evaluations take the capped path (the walk with breadth-first
// membership); the test checks that some insertion point does. The
// third evaluates the same window as a split one-window batch at
// Workers 2: row tasks, dispatch to the helper, replay and the
// re-evaluation of the winner.
func TestBestInWindowZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	d := newDesign(120, 8)
	// A realistic local neighborhood: placed cells around the target's
	// GP so chains, reps, and curve accumulation all do real work.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		ti := model.CellTypeID(rng.Intn(len(d.Types)))
		ct := d.Types[ti]
		addCell(d, ti, rng.Intn(120-ct.Width), rng.Intn(8-ct.Height), 0)
	}
	tgt := addCell(d, 1, 60, 4, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	legalizer := func(opt Options) *Legalizer {
		l := New(d, grid, opt)
		// Register everything except the target, as mid-run evaluation sees it.
		for i := range d.Cells {
			if model.CellID(i) == tgt {
				continue
			}
			if err := l.occ.insert(model.CellID(i)); err != nil {
				// Random cells may overlap; occupancy insert does not care.
				t.Fatalf("insert: %v", err)
			}
		}
		return l
	}
	zeroAlloc := func(name string, eval func()) {
		t.Helper()
		// Warm up the scratch pool and the reused buffers.
		for i := 0; i < 8; i++ {
			eval()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if allocs := testing.AllocsPerRun(200, eval); allocs != 0 {
			t.Fatalf("%s allocates %.2f objects/call after warm-up, want 0", name, allocs)
		}
	}

	l := legalizer(Options{Workers: 1})
	win := l.windowFor(tgt, 2)
	var dst []move
	zeroAlloc("bestInWindow", func() {
		if _, ok := l.bestInWindow(tgt, win, &dst); !ok {
			t.Fatal("no feasible plan in window")
		}
	})

	lc := legalizer(Options{Workers: 1, MaxChain: 2})
	// Some insertion point of the window must walk a capped side, which
	// starts the breadth-first search from its seeds.
	var sc scratch
	sc.beginWindow(len(lc.hot.X), len(lc.grid.Segs), lc.chainCap(win))
	cappedWalks, h := 0, int(lc.hot.H[tgt])
	yLo, yHi, _, _ := lc.scanRange(tgt, win)
	for y := yLo; y <= yHi; y++ {
		for _, x0 := range lc.insertionReps(&sc, lc.hot.Fence[tgt], y, h, win) {
			sc.queue = sc.queue[:0]
			lc.evaluateInsertion(&sc, tgt, y, h, x0, win)
			if len(sc.queue) > 0 {
				cappedWalks++
			}
		}
	}
	if cappedWalks == 0 {
		t.Fatal("no insertion point of the MaxChain 2 window walks a capped side")
	}
	zeroAlloc("bestInWindow with capped chains", func() {
		if _, ok := lc.bestInWindow(tgt, win, &dst); !ok {
			t.Fatal("no feasible plan in window")
		}
	})

	ls := legalizer(Options{Workers: 2})
	ls.rs.ensure(len(d.Cells), ls.opt.BatchCap)
	ls.rs.batch = append(ls.rs.batch, tgt)
	ls.rs.wins = append(ls.rs.wins, win)
	ctx := context.Background()
	pool := ls.startPool(ctx)
	defer pool.stop()
	zeroAlloc("a split batch", func() {
		if err := ls.evaluate(ctx, pool); err != nil || !ls.rs.oks[0] || !ls.rs.split {
			t.Fatalf("split evaluation: err %v, ok %v, split %v", err, ls.rs.oks[0], ls.rs.split)
		}
	})
}

// The persistent worker pool must be torn down on every RunContext
// return path: normal completion, typed error, and cancellation, with
// window tasks and with row tasks (BatchCap 1 splits every batch).
func TestPoolShutdownNoGoroutineLeak(t *testing.T) {
	check := func(name string, run func() error, wantErr bool) {
		t.Helper()
		before := testutil.Count()
		err := run()
		if wantErr && err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		if !wantErr && err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		testutil.CheckNoLeaks(t, before)
	}

	for _, batchCap := range []int{0, 1} {
		check("normal", func() error {
			rng := rand.New(rand.NewSource(12))
			d := randomDesign(rng, 120, 10, 70, false)
			grid, err := seg.Build(d)
			if err != nil {
				return err
			}
			return New(d, grid, Options{Workers: 4, BatchCap: batchCap}).Run()
		}, false)

		check("error", func() error {
			// 6 width-2 cells in a 10-site row: infeasible, typed error.
			d := newDesign(10, 1)
			for i := 0; i < 6; i++ {
				addCell(d, 0, 0, 0, 0)
			}
			grid, err := seg.Build(d)
			if err != nil {
				return err
			}
			err = New(d, grid, Options{Workers: 4, BatchCap: batchCap}).Run()
			var inf *InfeasibleError
			if !errors.As(err, &inf) {
				t.Fatalf("error path: got %v, want *InfeasibleError", err)
			}
			return err
		}, true)

		check("cancelled", func() error {
			rng := rand.New(rand.NewSource(13))
			d := randomDesign(rng, 120, 10, 70, false)
			grid, err := seg.Build(d)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithCancel(context.Background())
			l := New(d, grid, Options{
				Workers:  4,
				BatchCap: batchCap,
				DebugAfterBatch: func([]model.CellID) bool {
					cancel()
					return true
				},
			})
			err = l.RunContext(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled path: got %v, want context.Canceled", err)
			}
			return err
		}, true)
	}
}

// The interval sweep over chosen windows must accept and reject exactly
// the same candidates as the pairwise overlap scan it replaced.
func TestOverlapSweepMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		rs := &runState{}
		rs.ensure(1, 64)
		var chosen []int
		for i := 0; i < 40; i++ {
			x, y := rng.Intn(100), rng.Intn(30)
			w := geom.RectWH(x, y, 1+rng.Intn(25), 1+rng.Intn(8))
			pairwise := false
			for _, ci := range chosen {
				if rs.wins[ci].Overlaps(w) {
					pairwise = true
					break
				}
			}
			if got := rs.overlapsChosen(w); got != pairwise {
				t.Fatalf("trial %d window %d %v: sweep says %v, pairwise says %v",
					trial, i, w, got, pairwise)
			}
			if !pairwise {
				rs.wins = append(rs.wins, w)
				rs.addChosen(len(rs.wins) - 1)
				chosen = append(chosen, len(rs.wins)-1)
			}
		}
	}
}
