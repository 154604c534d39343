package mgl

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// A window evaluated as a split batch must return exactly the plan
// bestInWindow returns: same x, y, cost and moves. The occupancies are
// randomized mid-run states (a Workers 1 run stopped after a few
// batches) of designs with multi-height cells, a fence, edge spacing
// and forbidden rows; each unplaced cell is evaluated in its first
// four windows at every pruning setting and several worker counts,
// with the default chain cap and with MaxChain 3, whose capped walks
// then run inside concurrent row tasks.
func TestSplitBatchMatchesBestInWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		d := randomDesign(rng, 100, 14, 150, true)
		d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 1}}
		for i := range d.Types {
			d.Types[i].EdgeL = uint8(i % 2)
			d.Types[i].EdgeR = uint8((i + 1) % 2)
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		placed := make(map[model.CellID]bool)
		stopAfter, batches := 2+rng.Intn(6), 0
		l := New(d, grid, Options{
			Workers: 1,
			Rules: fakeRules{
				rowBad: func(ct model.CellTypeID, y int) bool { return ct == 0 && y%5 == 0 },
				xBad:   func(ct model.CellTypeID, x, y int) bool { return ct == 3 && (x+y)%7 == 0 },
			},
			DebugAfterBatch: func(p []model.CellID) bool {
				for _, id := range p {
					placed[id] = true
				}
				batches++
				return batches < stopAfter
			},
		})
		if err := l.Run(); err == nil {
			t.Fatalf("trial %d: the run was not stopped mid-way", trial)
		}
		var open []model.CellID
		for _, id := range l.Order() {
			if !placed[id] && len(open) < 12 {
				open = append(open, id)
			}
		}
		rs := &l.rs
		for _, leg := range []struct{ prune, maxChain int }{{-1, 0}, {1, 0}, {0, 0}, {-1, 3}, {1, 3}, {0, 3}} {
			l.opt.PruneSlackRows = Options{PruneSlackRows: leg.prune}.withDefaults().PruneSlackRows
			l.opt.MaxChain = Options{MaxChain: leg.maxChain}.withDefaults().MaxChain
			for _, workers := range []int{2, 3, 8} {
				l.opt.Workers = workers
				pool := l.startPool(ctx)
				for _, id := range open {
					for attempt := 0; attempt < 4; attempt++ {
						win := l.windowFor(id, attempt)
						var dst []move
						want, wantOK := l.bestInWindow(id, win, &dst)
						rs.batch = append(rs.batch[:0], id)
						rs.wins = append(rs.wins[:0], win)
						split := l.Stats.SplitBatches
						if err := l.evaluate(ctx, pool); err != nil {
							t.Fatal(err)
						}
						if l.Stats.SplitBatches != split+1 {
							t.Fatalf("a one-window batch at Workers %d was not split", workers)
						}
						got, gotOK := rs.plans[0], rs.oks[0]
						if gotOK != wantOK || gotOK && (got.x != want.x || got.y != want.y ||
							got.cost != want.cost || !slices.Equal(got.moves, want.moves)) {
							t.Fatalf("trial %d prune %d MaxChain %d workers %d cell %d attempt %d: split batch gives %v %+v, bestInWindow %v %+v",
								trial, leg.prune, leg.maxChain, workers, id, attempt, gotOK, got, wantOK, want)
						}
					}
				}
				pool.stop()
			}
		}
	}
}

// replayRows must pick the row the sequential scan picks from
// hand-built row results, and stop where the scan stops.
func TestSplitReplayRows(t *testing.T) {
	d := newDesign(40, 30) // RowH 80
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	const gy = 15
	// rows gives the results in scan order (gy, gy-1, gy+1, gy-2, ...):
	// a cost, none for a row without a plan, or skip for a skipped row.
	const none, skip = noCost, noCost - 1
	tasks := func(rows ...int64) []rowTask {
		ts := make([]rowTask, len(rows))
		for k, c := range rows {
			y, dist := scanRow(gy, k)
			ts[k].y, ts[k].dist, ts[k].x = int32(y), int32(dist), int32(k)
			ts[k].skipped = c == skip
			if c == skip {
				c = none
			}
			ts[k].cost.Store(c)
		}
		return ts
	}
	cases := []struct {
		name             string
		prune            int
		rows             []int64
		win, speculative int
	}{
		// Best 100 + 1 row of slack stops the scan at distance 3 (240 >
		// 180); the cheaper row there was evaluated but must not win.
		{"past the stop is ignored", 1, []int64{100, none, none, none, none, 10}, 0, 1},
		// dist*RowH == best + slack continues: distance 2 (160) is
		// scanned under best 80, and its 70 wins. Then 160 > 70 + 80
		// stops before the other distance-2 row.
		{"equal continues, greater stops", 1, []int64{80, none, none, 70, 60}, 3, 1},
		{"negative slack never stops", -1, []int64{100, none, none, none, none, none, none, none, none, 50}, 9, 0},
		{"equal cost prefers the lower row", 8, []int64{none, 40, 40}, 1, 0},
		{"no plan", 8, []int64{none, none, none}, -1, 0},
		{"skipped past the stop", 0, []int64{0, 90, skip, skip}, 0, 1},
	}
	for _, tc := range cases {
		l := New(d, grid, Options{Workers: 1})
		l.opt.PruneSlackRows = tc.prune // 0 is a slack of 0 rows here, not the default
		win, spec := l.replayRows(tasks(tc.rows...), gy)
		if win != tc.win || spec != tc.speculative {
			t.Errorf("%s: replay picks row %d with %d speculative rows, want %d and %d",
				tc.name, win, spec, tc.win, tc.speculative)
		}
	}

	l := New(d, grid, Options{Workers: 1, PruneSlackRows: 1})
	defer func() {
		if recover() == nil {
			t.Error("a skipped row the scan needs did not panic")
		}
	}()
	l.replayRows(tasks(100, skip, none), gy)
}

// Placed, the retry counts, Batches and the commit-attempt histogram
// describe the placement, so they do not depend on Workers. The split
// counters are 0 at Workers 1, and at Workers above BatchCap every
// batch is split.
func TestParallelStatsMatchAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 4; trial++ {
		base := randomDesign(rng, 120, 12, 140, trial%2 == 0)
		var ref Stats
		for _, w := range []int{1, 2, 4, 8} {
			st := runMGL(t, base.Clone(), Options{Workers: w, BatchCap: 4}).Stats
			if w == 1 {
				if st.SplitBatches != 0 || st.SpeculativeRows != 0 {
					t.Fatalf("trial %d: Workers 1 split %d batches, %d speculative rows",
						trial, st.SplitBatches, st.SpeculativeRows)
				}
				hist := 0
				for _, c := range st.CommitAttempts {
					hist += c
				}
				if hist != st.Placed || st.QualityRetries > st.WindowRetries {
					t.Fatalf("trial %d: inconsistent stats %+v", trial, st)
				}
				ref = st
				continue
			}
			if st.Placed != ref.Placed || st.WindowRetries != ref.WindowRetries ||
				st.QualityRetries != ref.QualityRetries || st.Batches != ref.Batches ||
				st.CommitAttempts != ref.CommitAttempts {
				t.Fatalf("trial %d: Workers %d stats %+v, Workers 1 %+v", trial, w, st, ref)
			}
			if w == 8 && st.SplitBatches != st.Batches {
				t.Errorf("trial %d: Workers 8 split %d of %d batches of at most 4 windows",
					trial, st.SplitBatches, st.Batches)
			}
		}
	}
}
