package mgl

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mclegal/internal/faults"
	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Stats reports work done by a Run.
type Stats struct {
	Placed int
	// WindowRetries counts evaluated windows that committed nothing;
	// QualityRetries is the share that quality-driven growth threw away.
	WindowRetries, QualityRetries int
	// CommitAttempts[a] counts cells committed at window attempt a, the
	// last entry attempts 3 and up; the entries sum to Placed.
	CommitAttempts [4]int
	Batches        int
	// SplitBatches counts batches evaluated as row tasks (narrower than
	// Workers); SpeculativeRows counts rows those tasks evaluated past
	// the sequential scan's stop, which the replay discarded.
	SplitBatches, SpeculativeRows int
	// Workers is the evaluation concurrency the run actually used
	// (after defaulting). It never affects the placement — see
	// Options.Workers — and is reported for observability only.
	Workers int
}

// Legalizer runs multi-row global legalization over one design.
type Legalizer struct {
	d    *model.Design
	grid *seg.Grid
	// hot is the struct-of-arrays view of d's cells the evaluation hot
	// paths read; commit writes every move through it so the view and
	// the design never diverge within a run.
	hot   *model.HotCells
	occ   *occupancy
	opt   Options
	maxSp int
	rs    runState

	// Stats is populated by Run; it remains valid (partially filled)
	// after a failed or cancelled run.
	Stats Stats
}

// New builds a legalizer for d over the prebuilt segmentation grid.
//
//mclegal:writes hotcells construction materializes the hot view of the design's cells
func New(d *model.Design, grid *seg.Grid, opt Options) *Legalizer {
	hot := model.NewHotCells(d)
	return &Legalizer{
		d:     d,
		grid:  grid,
		hot:   hot,
		occ:   newOccupancy(d, hot, grid),
		opt:   opt.withDefaults(),
		maxSp: d.Tech.MaxEdgeSpacing(),
	}
}

// Order returns the cell legalization order under the configured policy.
func (l *Legalizer) Order() []model.CellID {
	ids := make([]model.CellID, 0, l.d.MovableCount())
	for i := range l.d.Cells {
		if !l.d.Cells[i].Fixed {
			ids = append(ids, model.CellID(i))
		}
	}
	ts := l.d.Types
	cs := l.d.Cells
	sort.SliceStable(ids, func(a, b int) bool {
		ca, cb := &cs[ids[a]], &cs[ids[b]]
		ta, tb := &ts[ca.Type], &ts[cb.Type]
		switch l.opt.Order {
		case GPLeftToRight:
			if ca.GX != cb.GX {
				return ca.GX < cb.GX
			}
		case WidestAreaFirst:
			aa, ab := ta.Width*ta.Height, tb.Width*tb.Height
			if aa != ab {
				return aa > ab
			}
		default: // TallestFirst
			if ta.Height != tb.Height {
				return ta.Height > tb.Height
			}
		}
		if ca.GX != cb.GX {
			return ca.GX < cb.GX
		}
		return ids[a] < ids[b]
	})
	return ids
}

// growFactor multiplies the window extents at each growth step.
const growFactor = 2

// windowFor returns the (attempt-times grown) search window of cell t,
// clamped to the core.
func (l *Legalizer) windowFor(t model.CellID, attempt int) geom.Rect {
	c := &l.d.Cells[t]
	ct := &l.d.Types[c.Type]
	hw := l.opt.WindowW
	if hw <= 0 {
		hw = 2*ct.Width + 8
	}
	hh := l.opt.WindowH
	if hh <= 0 {
		hh = ct.Height + 2
	}
	for i := 0; i < attempt; i++ {
		hw *= growFactor
		hh *= growFactor
	}
	core := l.d.Tech.CoreRect()
	win := geom.Rect{
		XLo: c.GX - hw, XHi: c.GX + ct.Width + hw,
		YLo: c.GY - hh, YHi: c.GY + ct.Height + hh,
	}
	return win.Intersect(core)
}

// betterPlan reports whether p beats best: by cost, then by |Δrow| to
// the GP row, then by lower y, then lower x. An unset best always
// loses. The tiebreak chain makes the choice worker-independent.
func betterPlan(p, best plan, gy int) bool {
	if !best.ok {
		return true
	}
	if p.cost != best.cost {
		return p.cost < best.cost
	}
	da, db := geom.Abs(p.y-gy), geom.Abs(best.y-gy)
	if da != db {
		return da < db
	}
	if p.y != best.y {
		return p.y < best.y
	}
	return p.x < best.x
}

// bestInWindow evaluates every insertion point of t in win on the
// calling worker's scratch sc and returns the cheapest feasible plan.
// The winning plan's moves are copied into *dst (reusing its
// capacity), so the returned plan stays valid after sc is reused.
//
//mclegal:hotpath per-cell inner loop of MGL; TestBestInWindowZeroAlloc pins it to 0 allocs/op after warm-up
func (l *Legalizer) bestInWindow(sc *scratch, t model.CellID, win geom.Rect, dst *[]move) (plan, bool) {
	sc.beginWindow(len(l.hot.X), len(l.grid.Segs), l.chainCap(win))

	// Scan candidate rows outward from the GP row (see scanRow) so that
	// row pruning (PruneSlackRows) can stop early: once the y-cost alone
	// exceeds the best cost plus the slack, no farther row can win.
	// Split batches lay out their row tasks in the same order.
	var best plan
	h := int(l.hot.H[t])
	yLo, yHi, gy, kMax := l.scanRange(t, win)
	for k := 0; k <= kMax; k++ {
		y, dist := scanRow(gy, k)
		if y < yLo || y > yHi {
			continue
		}
		if best.ok && l.prunes(dist, best.cost) {
			break
		}
		best = l.bestInRow(sc, t, y, h, win, best)
	}
	if best.ok {
		*dst = append((*dst)[:0], best.moves...)
		best.moves = *dst
	}
	return best, best.ok
}

// bestInRow evaluates every insertion point of t on row y of win and
// returns best replaced by the first of them that betterPlan prefers
// to it, if any. The returned plan's moves live in sc.bestMoves. This
// is the per-row body of both bestInWindow and a split batch's row
// tasks, which pass an unset best.
func (l *Legalizer) bestInRow(sc *scratch, t model.CellID, y, h int, win geom.Rect, best plan) plan {
	hc := l.hot
	if !l.d.Tech.RowAllowed(h, y) {
		return best
	}
	if l.opt.Rules != nil && l.opt.Rules.RowForbidden(hc.Type[t], y) {
		return best
	}
	gy := int(hc.GY[t])
	for _, x0 := range l.insertionReps(sc, hc.Fence[t], y, h, win) {
		p, ok := l.evaluateInsertion(sc, t, y, h, x0, win)
		if ok && betterPlan(p, best, gy) {
			// p.moves aliases sc.moves, which the next evaluation
			// overwrites: keep a stable copy.
			sc.bestMoves = append(sc.bestMoves[:0], p.moves...)
			best = p
			best.moves = sc.bestMoves
		}
	}
	return best
}

// scanRange returns the rows [yLo, yHi] that t's bottom edge may take
// in win, t's GP row gy, and the last scanRow index that can reach them
// (-1 when the range is empty).
func (l *Legalizer) scanRange(t model.CellID, win geom.Rect) (yLo, yHi, gy, kMax int) {
	yLo = max(win.YLo, 0)
	yHi = min(win.YHi, l.d.Tech.NumRows) - int(l.hot.H[t])
	gy = int(l.hot.GY[t])
	kMax = -1
	if yHi >= yLo {
		kMax = 2 * max(geom.Abs(gy-yLo), geom.Abs(yHi-gy))
	}
	return yLo, yHi, gy, kMax
}

// scanRow returns the k-th row of the outward scan from the GP row gy
// and its distance from gy: distance ascending, the lower row first on
// ties (gy, gy-1, gy+1, gy-2, gy+2, ...).
func scanRow(gy, k int) (y, dist int) {
	dist = (k + 1) / 2
	if k%2 == 1 {
		return gy - dist, dist
	}
	return gy + dist, dist
}

// prunes reports whether row pruning ends the outward scan at a row
// dist rows from the GP row once a plan of cost best is known.
func (l *Legalizer) prunes(dist int, best int64) bool {
	rowH := int64(l.d.Tech.RowH)
	return l.opt.PruneSlackRows >= 0 && int64(dist)*rowH > best+int64(l.opt.PruneSlackRows)*rowH
}

// insertionReps returns the representative x positions that enumerate
// all distinct insertion points for rows [y,y+h) within win: one per
// elementary interval between segment starts and placed-cell left
// edges. The returned slice is owned by sc and valid until the next
// call.
func (l *Legalizer) insertionReps(sc *scratch, f model.FenceID, y, h int, win geom.Rect) []int {
	reps := sc.reps[:0]
	lo, hi := win.XLo, win.XHi
	if lo < hi {
		reps = append(reps, lo)
	}
	hc := l.hot
	grid := l.grid
	for r := y; r < y+h; r++ {
		for _, sid := range grid.Row(r) {
			sLo, sHi := grid.Lo(sid), grid.Hi(sid)
			if grid.FenceOf(sid) != f || sLo >= hi || sHi <= lo {
				continue
			}
			if sLo >= lo && sLo < hi {
				reps = append(reps, sLo)
			}
			// Only cells whose left edge lies inside [lo, hi) can
			// contribute; the occupancy list is x-sorted, so binary
			// search to the first candidate and stop at the window end.
			lst := l.occ.cellsIn(sid)
			start := sort.Search(len(lst), func(k int) bool { return int(hc.X[lst[k]]) >= lo })
			for _, id := range lst[start:] {
				x := int(hc.X[id])
				if x >= hi {
					break
				}
				reps = append(reps, x)
			}
		}
	}
	slices.Sort(reps)
	out := reps[:0]
	for i, x := range reps {
		if i == 0 || x != reps[i-1] {
			out = append(out, x)
		}
	}
	sc.reps = reps
	return out
}

// commit applies a plan: chain cells shift, the target is placed and
// registered. Shifts preserve the x-order of every occupancy list.
func (l *Legalizer) commit(p plan) error {
	for _, mv := range p.moves {
		l.hot.SetX(l.d, mv.id, mv.newX)
	}
	l.hot.SetXY(l.d, p.target, p.x, p.y)
	c := &l.d.Cells[p.target]
	if l.opt.Faults.ShouldFire(faults.MGLInsertOutside) {
		return &InsertError{Cell: p.target, Name: c.Name, X: c.X, Y: c.Y, Row: c.Y}
	}
	if err := l.occ.insert(p.target); err != nil {
		return err
	}
	l.Stats.Placed++
	l.Stats.CommitAttempts[min(int(l.rs.attempt[p.target]), len(l.Stats.CommitAttempts)-1)]++
	return nil
}

// coverageBound returns the minimum possible target-displacement cost
// of any position *outside* win: if the best in-window plan costs more,
// a cheaper position may exist beyond the window.
func (l *Legalizer) coverageBound(t model.CellID, win geom.Rect) int64 {
	c := &l.d.Cells[t]
	ct := &l.d.Types[c.Type]
	core := l.d.Tech.CoreRect()
	siteW := int64(l.d.Tech.SiteW)
	rowH := int64(l.d.Tech.RowH)
	bound := int64(1) << 62
	if win.XLo > core.XLo {
		bound = min64(bound, int64(c.GX-win.XLo)*siteW)
	}
	if win.XHi < core.XHi {
		bound = min64(bound, int64(win.XHi-ct.Width-c.GX)*siteW)
	}
	if win.YLo > core.YLo {
		bound = min64(bound, int64(c.GY-win.YLo)*rowH)
	}
	if win.YHi < core.YHi {
		bound = min64(bound, int64(win.YHi-ct.Height-c.GY)*rowH)
	}
	return bound
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// runState holds the scheduler's per-run buffers: per-cell retry
// counters, epoch-stamped batch membership (replacing per-batch maps),
// the per-slot evaluation results, the row tasks of a split batch, and
// the sorted-interval sweep over the chosen windows. Everything is
// allocated once per design size and reused across batches and runs.
type runState struct {
	// Per-cell state, indexed by CellID. attempt and quality persist
	// across batches within one run; selEpoch/failEpoch mark batch
	// membership by carrying the batch's epoch value, so "clearing"
	// them between batches is a single counter increment.
	attempt   []int32
	quality   []int32
	selEpoch  []uint32
	failEpoch []uint32
	epoch     uint32

	// Per-batch slots, capacity BatchCap. fire[i] is the injected-panic
	// decision for slot i, made serially when the batch is built.
	batch     []model.CellID
	wins      []geom.Rect
	plans     []plan
	oks       []bool
	fire      []bool
	panics    []atomic.Pointer[WorkerPanicError]
	moves     [][]move // stable backing storage for plans[i].moves
	committed []model.CellID

	// The current batch's tasks, claimed through next: slot i's window
	// when split is false, row tasks otherwise, slot i owning
	// tasks[taskLo[i]:taskLo[i+1]].
	split  bool
	tasks  []rowTask
	taskLo []int32
	next   atomic.Int32

	// Window-overlap sweep: indices into wins sorted by XLo, with a
	// parallel prefix-maximum of XHi (see overlapsChosen).
	byXLo []int32
	maxHi []int
}

func (rs *runState) ensure(nCells, batchCap int) {
	if len(rs.attempt) < nCells {
		rs.attempt = make([]int32, nCells)
		rs.quality = make([]int32, nCells)
		rs.selEpoch = make([]uint32, nCells)
		rs.failEpoch = make([]uint32, nCells)
	} else {
		// Repeat runs restart the retry counters; the epoch stamps
		// stay valid because the epoch counter keeps increasing.
		clear(rs.attempt[:nCells])
		clear(rs.quality[:nCells])
	}
	if cap(rs.plans) < batchCap {
		rs.batch = make([]model.CellID, 0, batchCap)
		rs.wins = make([]geom.Rect, 0, batchCap)
		rs.plans = make([]plan, batchCap)
		rs.oks = make([]bool, batchCap)
		rs.fire = make([]bool, batchCap)
		rs.panics = make([]atomic.Pointer[WorkerPanicError], batchCap)
		rs.moves = make([][]move, batchCap)
		rs.taskLo = make([]int32, batchCap+1)
		rs.byXLo = make([]int32, 0, batchCap)
		rs.maxHi = make([]int, 0, batchCap)
	}
}

// overlapsChosen reports whether w overlaps any window already chosen
// for the current batch. Instead of the former O(batch) pairwise scan
// per candidate, the chosen windows are kept sorted by XLo with a
// running prefix-max of XHi: windows starting at or right of w.XHi are
// skipped by binary search, and the backward scan stops as soon as the
// prefix maximum right edge falls at or left of w.XLo. The residual
// rectangle test is exact, so batch composition — and therefore the
// final placement — is identical to the pairwise version.
func (rs *runState) overlapsChosen(w geom.Rect) bool {
	k := sort.Search(len(rs.byXLo), func(i int) bool {
		return rs.wins[rs.byXLo[i]].XLo >= w.XHi
	})
	for j := k - 1; j >= 0; j-- {
		if rs.maxHi[j] <= w.XLo {
			return false
		}
		if rs.wins[rs.byXLo[j]].Overlaps(w) {
			return true
		}
	}
	return false
}

// addChosen inserts wins[idx] into the sweep structures, keeping byXLo
// sorted and maxHi its prefix maximum of XHi.
func (rs *runState) addChosen(idx int) {
	w := rs.wins[idx]
	k := sort.Search(len(rs.byXLo), func(i int) bool {
		return rs.wins[rs.byXLo[i]].XLo > w.XLo
	})
	rs.byXLo = append(rs.byXLo, 0)
	copy(rs.byXLo[k+1:], rs.byXLo[k:])
	rs.byXLo[k] = int32(idx)
	rs.maxHi = append(rs.maxHi, 0)
	for j := k; j < len(rs.byXLo); j++ {
		hi := rs.wins[rs.byXLo[j]].XHi
		if j > 0 && rs.maxHi[j-1] > hi {
			hi = rs.maxHi[j-1]
		}
		rs.maxHi[j] = hi
	}
}

// rowTask is one candidate row of a split window. cost is the row's
// best plan cost, or noCost until the row has a plan; the window's
// other tasks read it while the batch runs. x and x0 are that plan's
// target x and insertion point. y is -1 for the one empty task of a
// window without candidate rows.
type rowTask struct {
	cost          atomic.Int64
	slot, y, dist int32
	x, x0         int32
	skipped       bool // left unevaluated by evalRow's stop test
}

const noCost int64 = math.MaxInt64

// addRowTasks appends batch slot i's candidate rows as row tasks, in
// bestInWindow's scan order. A window without candidate rows gets one
// empty task, so that every window has a first task.
func (l *Legalizer) addRowTasks(i int) {
	rs := &l.rs
	yLo, yHi, gy, kMax := l.scanRange(rs.batch[i], rs.wins[i])
	add := func(y, dist int) {
		rs.tasks = append(rs.tasks, rowTask{slot: int32(i), y: int32(y), dist: int32(dist)})
		rs.tasks[len(rs.tasks)-1].cost.Store(noCost)
	}
	for k := 0; k <= kMax; k++ {
		if y, dist := scanRow(gy, k); y >= yLo && y <= yHi {
			add(y, dist)
		}
	}
	if int32(len(rs.tasks)) == rs.taskLo[i] {
		add(-1, 0)
	}
	rs.taskLo[i+1] = int32(len(rs.tasks))
}

// runTask evaluates task k of the current batch against the snapshot
// on the calling worker's scratch sc: slot k's window, or one row of a
// split window. A panic inside the evaluation is recovered into a
// typed *WorkerPanicError carrying the cell and stack — RunContext
// reports the lowest slot's — so a degenerate window can never crash
// the process. An injected panic is raised in its window's first task.
func (l *Legalizer) runTask(sc *scratch, k int) {
	rs := &l.rs
	i := k
	if rs.split {
		i = int(rs.tasks[k].slot)
	}
	defer func() {
		if r := recover(); r != nil {
			rs.panics[i].CompareAndSwap(nil, &WorkerPanicError{
				Cell: rs.batch[i], Value: r, Stack: debug.Stack(),
			})
		}
	}()
	if rs.fire[i] && (!rs.split || k == int(rs.taskLo[i])) {
		panic("injected worker panic")
	}
	if rs.split {
		l.evalRow(sc, k)
		return
	}
	rs.plans[i], rs.oks[i] = l.bestInWindow(sc, rs.batch[i], rs.wins[i], &rs.moves[i])
}

// evalRow evaluates row task k unless the finished rows before it in
// its window's scan order prove the sequential scan stops at or before
// it: their best cost is at least the sequential best at that point,
// so the stop condition holds there too.
func (l *Legalizer) evalRow(sc *scratch, k int) {
	rs := &l.rs
	tk := &rs.tasks[k]
	if tk.y < 0 {
		return
	}
	best := noCost
	for j := rs.taskLo[tk.slot]; j < int32(k); j++ {
		best = min(best, rs.tasks[j].cost.Load())
	}
	if best != noCost && l.prunes(int(tk.dist), best) {
		tk.skipped = true
		return
	}
	t := rs.batch[tk.slot]
	sc.beginWindow(len(l.hot.X), len(l.grid.Segs), l.chainCap(rs.wins[tk.slot]))
	p := l.bestInRow(sc, t, int(tk.y), int(l.hot.H[t]), rs.wins[tk.slot], plan{})
	if p.ok {
		tk.x, tk.x0 = int32(p.x), int32(p.x0)
		tk.cost.Store(p.cost)
	}
}

// replay turns split slot i's row results into the plan bestInWindow
// returns: it picks the row as the sequential scan does, then evaluates
// the winning insertion point again for its moves, on sc.
func (l *Legalizer) replay(sc *scratch, i int) {
	rs := &l.rs
	t := rs.batch[i]
	lo := rs.taskLo[i]
	k, speculative := l.replayRows(rs.tasks[lo:rs.taskLo[i+1]], int(l.hot.GY[t]))
	l.Stats.SpeculativeRows += speculative
	if k < 0 {
		return
	}
	tk := &rs.tasks[int(lo)+k]
	sc.beginWindow(len(l.hot.X), len(l.grid.Segs), l.chainCap(rs.wins[i]))
	p, ok := l.evaluateInsertion(sc, t, int(tk.y), int(l.hot.H[t]), int(tk.x0), rs.wins[i])
	if !ok || p.x != int(tk.x) || p.cost != tk.cost.Load() {
		panic("mgl: re-evaluated insertion point differs from its row task")
	}
	rs.moves[i] = append(rs.moves[i][:0], p.moves...)
	p.moves = rs.moves[i]
	rs.plans[i], rs.oks[i] = p, true
}

// replayRows walks one window's row tasks in scan order, applying the
// PruneSlackRows stop and betterPlan as bestInWindow does. It returns
// the index of the task holding the plan the scan picks (-1 for none)
// and the number of rows evaluated past the stop. Plans of different
// rows differ in y, so betterPlan never ties across rows, and reducing
// each row's first minimum in scan order gives the scan's first
// minimum. A row the scan needs that was skipped is a bug: it panics.
func (l *Legalizer) replayRows(tasks []rowTask, gy int) (win, speculative int) {
	win = -1
	var best plan
	for k := range tasks {
		tk := &tasks[k]
		if best.ok && l.prunes(int(tk.dist), best.cost) {
			for j := k; j < len(tasks); j++ {
				if !tasks[j].skipped {
					speculative++
				}
			}
			break
		}
		if tk.skipped {
			panic("mgl: a row the sequential scan needs was skipped")
		}
		if c := tk.cost.Load(); c != noCost {
			p := plan{x: int(tk.x), y: int(tk.y), cost: c, ok: true}
			if betterPlan(p, best, gy) {
				best, win = p, k
			}
		}
	}
	return win, speculative
}

// drain claims tasks of the current batch through the shared cursor
// and evaluates them on sc until none is left or ctx is cancelled;
// RunContext checks ctx before interpreting any result.
func (l *Legalizer) drain(ctx context.Context, sc *scratch) {
	rs := &l.rs
	n := len(rs.batch)
	if rs.split {
		n = len(rs.tasks)
	}
	for ctx.Err() == nil {
		k := int(rs.next.Add(1)) - 1
		if k >= n {
			return
		}
		l.runTask(sc, k)
	}
}

// evaluate scores the current batch against the snapshot. A batch
// narrower than Workers is split into one task per candidate row, so
// that no worker idles, and replayed afterwards into the plans
// bestInWindow would return; wider batches, and every batch at
// Workers 1, run one task per window.
func (l *Legalizer) evaluate(ctx context.Context, pool *evalPool) error {
	rs := &l.rs
	n := len(rs.batch)
	rs.split = n < l.opt.Workers
	rs.tasks = rs.tasks[:0]
	for i := 0; i < n; i++ {
		rs.oks[i] = false
		rs.panics[i].Store(nil)
		// Decided serially in slot order, so the window a fault hits
		// never depends on worker timing.
		rs.fire[i] = l.opt.Faults.ShouldFire(faults.MGLWorkerPanic)
		if rs.split {
			l.addRowTasks(i)
		}
	}
	rs.next.Store(0)
	pool.run(ctx, l)
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range rs.panics[:n] {
		if pe := rs.panics[i].Load(); pe != nil {
			return pe
		}
	}
	if rs.split {
		l.Stats.SplitBatches++
		for i := 0; i < n; i++ {
			l.replay(pool.sc, i)
		}
	}
	return nil
}

// evalPool is the persistent evaluation worker pool of one RunContext:
// Workers-1 helper goroutines (none at Workers 1) started once and torn
// down by stop() on every return path. Per batch, each helper takes one
// token and claims tasks through the batch cursor beside the scheduler
// goroutine, which drains tasks too. Every worker, the scheduler
// included, evaluates on one scratch taken from scratchPool for the
// pool's life.
type evalPool struct {
	start   chan struct{} // one token per helper per batch
	workers sync.WaitGroup
	pending sync.WaitGroup // helpers still draining the current batch
	sc      *scratch       // the scheduler goroutine's scratch
}

// startPool launches the helpers.
func (l *Legalizer) startPool(ctx context.Context) *evalPool {
	helpers := l.opt.Workers - 1
	p := &evalPool{start: make(chan struct{}, helpers), sc: scratchPool.Get()}
	p.workers.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer p.workers.Done()
			sc := scratchPool.Get()
			defer scratchPool.Put(sc)
			for range p.start {
				l.drain(ctx, sc)
				p.pending.Done()
			}
		}()
	}
	return p
}

// run drains the current batch on the helpers and the calling
// goroutine and blocks until every task is done. The WaitGroup handoff
// orders the helpers' writes to the runState slots and tasks before
// the scheduler reads them.
func (p *evalPool) run(ctx context.Context, l *Legalizer) {
	p.pending.Add(cap(p.start))
	for i := 0; i < cap(p.start); i++ {
		p.start <- struct{}{}
	}
	l.drain(ctx, p.sc)
	p.pending.Wait()
}

// stop tears the pool down and waits for every worker to exit, so a
// returned RunContext never leaks goroutines (see
// TestPoolShutdownNoGoroutineLeak).
func (p *evalPool) stop() {
	close(p.start)
	p.workers.Wait()
	scratchPool.Put(p.sc)
}

// Run legalizes every movable cell (see RunContext).
//
//mclegal:writes design.xy,hotcells,occupancy MGL commits legal positions through both the design and its hot view and maintains the occupancy index
func (l *Legalizer) Run() error { return l.RunContext(context.Background()) }

// RunContext legalizes every movable cell using the deterministic
// window scheduler of paper Section 3.5: each iteration selects up to
// BatchCap cells (in queue order) whose windows are pairwise disjoint,
// evaluates them against the iteration's snapshot (see evaluate), then
// commits the results in queue order. Batch composition and commit
// order never depend on Workers, and a split batch's replay returns
// the plans bestInWindow would, so the final placement is
// byte-identical for every worker count.
//
// Cancelling ctx aborts between batches — never mid-commit — with
// ctx.Err(): cells already committed keep their legal positions and
// the remainder stay at their GP positions, so the design remains
// consistent and auditable (though not legal).
//
//mclegal:writes design.xy,hotcells,occupancy MGL commits legal positions through both the design and its hot view and maintains the occupancy index
func (l *Legalizer) RunContext(ctx context.Context) error {
	queue := l.Order()
	rs := &l.rs
	rs.ensure(len(l.d.Cells), l.opt.BatchCap)
	l.Stats.Workers = l.opt.Workers
	pool := l.startPool(ctx)
	defer pool.stop()
	core := l.d.Tech.CoreRect()
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Select the batch L_p: queue-ordered, pairwise-disjoint windows.
		rs.epoch++
		rs.batch = rs.batch[:0]
		rs.wins = rs.wins[:0]
		rs.byXLo = rs.byXLo[:0]
		rs.maxHi = rs.maxHi[:0]
		for _, t := range queue {
			if len(rs.batch) >= l.opt.BatchCap {
				break
			}
			w := l.windowFor(t, int(rs.attempt[t]))
			if rs.overlapsChosen(w) {
				continue
			}
			rs.batch = append(rs.batch, t)
			rs.wins = append(rs.wins, w)
			rs.addChosen(len(rs.batch) - 1)
			rs.selEpoch[t] = rs.epoch
		}
		l.Stats.Batches++

		if err := l.evaluate(ctx, pool); err != nil {
			return err
		}

		// Sequential deterministic commit; failures grow their window
		// and return to the queue.
		rs.committed = rs.committed[:0]
		for i, t := range rs.batch {
			if rs.oks[i] {
				// Quality-driven growth (see legalizeOne): if a
				// cheaper position may lie outside this window and the
				// budget allows, retry with a bigger window instead of
				// committing. The next batch re-evaluates fresh, which
				// keeps batch windows disjoint.
				if rs.wins[i] != core && l.opt.QualityGrowths >= 0 &&
					int(rs.quality[t]) < l.opt.QualityGrowths &&
					rs.plans[i].cost > l.coverageBound(t, rs.wins[i]) {
					rs.quality[t]++
					rs.attempt[t]++
					rs.failEpoch[t] = rs.epoch
					l.Stats.WindowRetries++
					l.Stats.QualityRetries++
					continue
				}
				if err := l.commit(rs.plans[i]); err != nil {
					return err
				}
				rs.committed = append(rs.committed, t)
				continue
			}
			l.Stats.WindowRetries++
			if rs.wins[i] == core {
				return &InfeasibleError{Cell: t, Name: l.d.Cells[t].Name, Fence: l.d.Cells[t].Fence}
			}
			rs.attempt[t]++
			rs.failEpoch[t] = rs.epoch
		}
		next := queue[:0]
		for _, t := range queue {
			if rs.selEpoch[t] != rs.epoch || rs.failEpoch[t] == rs.epoch {
				next = append(next, t)
			}
		}
		queue = next
		//mclegal:writeset the debug hook is wired only by tests and receives the committed count by value
		if l.opt.DebugAfterBatch != nil && !l.opt.DebugAfterBatch(rs.committed) {
			return fmt.Errorf("mgl: aborted by debug hook")
		}
	}
	return nil
}

// Legalize builds the segmentation of d and runs MGL with opt.
//
//mclegal:writes design.xy,hotcells,occupancy MGL commits legal positions through both the design and its hot view and maintains the occupancy index
func Legalize(d *model.Design, opt Options) (*Legalizer, error) {
	return LegalizeContext(context.Background(), d, opt)
}

// LegalizeContext builds the segmentation of d and runs MGL with opt
// under ctx.
//
//mclegal:writes design.xy,hotcells,occupancy MGL commits legal positions through both the design and its hot view and maintains the occupancy index
func LegalizeContext(ctx context.Context, d *model.Design, opt Options) (*Legalizer, error) {
	grid, err := seg.Build(d)
	if err != nil {
		return nil, err
	}
	l := New(d, grid, opt)
	if err := l.RunContext(ctx); err != nil {
		return l, err
	}
	return l, nil
}
