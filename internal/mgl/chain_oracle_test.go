package mgl

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mclegal/internal/curve"
	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// The reference evaluation of one insertion point: the full push-chain
// builders and the curve and move assembly that evaluateInsertion ran
// before it walked only the pushed cells. TestPushedChainsMatchOracle
// compares the two at every insertion point.

// chainCell is one movable local cell of a push chain.
type chainCell struct {
	id  model.CellID
	off int64 // longest-path offset from the target x (includes spacing)
	// bound is minPos for left chains (lowest legal left edge) and
	// maxPos for right chains (highest legal left edge).
	bound int64
}

// oracleScratch holds the reference builders' buffers, indexed by cell
// ID and cleared by bumping the stamp.
type oracleScratch struct {
	stamp    int32
	inChain  []int32 // stamp marker: cell is in the current chain
	chainIdx []int32 // index into the chain slice (valid when marked)
	offStamp []int32
	offReq   []int64 // seeded frontier off requirement

	chain  []chainCell
	chainR []chainCell
	queue  []int32
	order  []int

	total curve.Curve
	moves []move
}

func (s *oracleScratch) reset(n int) {
	if len(s.inChain) < n {
		s.inChain = make([]int32, n)
		s.chainIdx = make([]int32, n)
		s.offStamp = make([]int32, n)
		s.offReq = make([]int64, n)
	}
	s.stamp++
}

// leftNeighborIdx returns, for segment sid, the index in the occupancy
// list of the nearest cell whose left edge is <= x (-1 if none).
func (l *Legalizer) leftNeighborIdx(sid int32, x int) int {
	return l.occ.splitAt(sid, x) - 1
}

const chainInfeasible = int64(1) << 60

// Chain-membership helpers on oracleScratch. These were closures capturing
// the chain slice; as methods over explicit state they keep the chain
// builders allocation-free.

// chainAt returns the chain index of id if it carries the current
// stamp.
func (s *oracleScratch) chainAt(id model.CellID) (int32, bool) {
	if s.inChain[id] == s.stamp {
		return s.chainIdx[id], true
	}
	return 0, false
}

// bumpOff raises the seeded frontier offset requirement of id.
func (s *oracleScratch) bumpOff(id model.CellID, off int64) {
	if s.offStamp[id] != s.stamp || off > s.offReq[id] {
		s.offStamp[id] = s.stamp
		s.offReq[id] = off
	}
}

// seedOff returns the seeded frontier offset of id (0 if none).
func (s *oracleScratch) seedOff(id model.CellID) int64 {
	if s.offStamp[id] == s.stamp {
		return s.offReq[id]
	}
	return 0
}

// buildLeftChain collects the movable cells pushed left when the target
// (rows [y,y+h)) is inserted with its left edge at variable x. It
// returns the chain cells (off and minPos filled in) and the x lower
// bound implied by compression; lo == chainInfeasible marks an
// infeasible insertion point. The returned slice is owned by sc.
func (l *Legalizer) buildLeftChain(sc *oracleScratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
	hc := l.hot
	grid := l.grid
	tct := hc.Type[t]
	tf := hc.Fence[t]
	sc.reset(len(hc.X))
	chain := sc.chain[:0]
	queue := sc.queue[:0]
	capN := l.chainCap(win)
	var xlo int64

	// Seed with per-target-row frontiers.
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return nil, chainInfeasible
		}
		idx := l.leftNeighborIdx(sid, x0)
		if idx < 0 {
			if b := l.winPadLo(win, grid.Lo(sid)); b > xlo {
				xlo = b
			}
			continue
		}
		nb := l.occ.cellsIn(sid)[idx]
		if !l.isLocal(nb, win) {
			b := int64(hc.X[nb]+hc.W[nb]) + l.spacing(hc.Type[nb], tct)
			if b > xlo {
				xlo = b
			}
			continue
		}
		if sc.inChain[nb] != sc.stamp {
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
		sc.bumpOff(nb, int64(hc.W[nb])+l.spacing(hc.Type[nb], tct))
	}

	// BFS: explore left neighbors of chain members across all their rows.
	for qi := 0; qi < len(queue); qi++ {
		for _, lk := range l.occ.slots(model.CellID(queue[qi])) {
			nb := lk.left
			if nb < 0 || sc.inChain[nb] == sc.stamp {
				continue
			}
			if !l.isLocal(nb, win) || len(chain) >= capN {
				continue // becomes a barrier below, via minPos
			}
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
	}

	// Topological pass 1 (descending X): longest-path offsets.
	order := sc.order[:0]
	for i := range chain {
		order = append(order, i)
	}
	// Insertion sort by descending X: chains are short and this is hot.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hc.X[chain[order[j]].id] > hc.X[chain[order[j-1]].id]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ci := range order {
		c := chain[ci].id
		off := sc.seedOff(c)
		for _, lk := range l.occ.slots(c) {
			rn := lk.right
			if rn < 0 {
				continue
			}
			ri, ok2 := sc.chainAt(rn)
			if !ok2 {
				continue
			}
			req := chain[ri].off + int64(hc.W[c]) + l.spacing(hc.Type[c], hc.Type[rn])
			if req > off {
				off = req
			}
		}
		if off == 0 {
			off = -1 // defensive: never move a requirement-free cell
		}
		chain[ci].off = off
	}

	// Topological pass 2 (ascending X): compression bounds (minPos).
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := chain[ci].id
		var minPos int64 = -1 << 60
		for _, lk := range l.occ.slots(c) {
			nb := lk.left
			if nb < 0 {
				if b := l.winPadLo(win, grid.Lo(lk.sid)); b > minPos {
					minPos = b
				}
				continue
			}
			if ni, ok2 := sc.chainAt(nb); ok2 {
				b := chain[ni].bound + int64(hc.W[nb]) + l.spacing(hc.Type[nb], hc.Type[c])
				if b > minPos {
					minPos = b
				}
			} else {
				// Non-local barrier, still clamped to the (padded)
				// window edge: chain cells must never leave the
				// window, or parallel batches could collide.
				b := int64(hc.X[nb]+hc.W[nb]) + l.spacing(hc.Type[nb], hc.Type[c])
				if w := l.winPadLo(win, grid.Lo(lk.sid)); w > b {
					b = w
				}
				if b > minPos {
					minPos = b
				}
			}
		}
		chain[ci].bound = minPos
		if chain[ci].off > 0 {
			if v := minPos + chain[ci].off; v > xlo {
				xlo = v
			}
		}
	}
	sc.chain, sc.queue, sc.order = chain, queue, order
	return chain, xlo
}

// buildRightChain mirrors buildLeftChain for cells pushed right. It
// returns the chain and the upper bound on the target x; hi ==
// -chainInfeasible marks an infeasible insertion point. The returned
// slice is owned by sc.
func (l *Legalizer) buildRightChain(sc *oracleScratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
	hc := l.hot
	grid := l.grid
	tct := hc.Type[t]
	tf := hc.Fence[t]
	tw := int64(hc.W[t])
	sc.reset(len(hc.X))
	chain := sc.chainR[:0]
	queue := sc.queue[:0]
	capN := l.chainCap(win)
	xhi := int64(1) << 60

	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return nil, -chainInfeasible
		}
		lst := l.occ.cellsIn(sid)
		i := l.occ.splitAt(sid, x0)
		if i >= len(lst) {
			if v := l.winPadHi(win, grid.Hi(sid)) - tw; v < xhi {
				xhi = v
			}
			continue
		}
		nb := lst[i]
		if !l.isLocal(nb, win) {
			b := int64(hc.X[nb]) - l.spacing(tct, hc.Type[nb]) - tw
			if b < xhi {
				xhi = b
			}
			continue
		}
		if sc.inChain[nb] != sc.stamp {
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
		sc.bumpOff(nb, tw+l.spacing(tct, hc.Type[nb]))
	}

	for qi := 0; qi < len(queue); qi++ {
		for _, lk := range l.occ.slots(model.CellID(queue[qi])) {
			nb := lk.right
			if nb < 0 || sc.inChain[nb] == sc.stamp {
				continue
			}
			if !l.isLocal(nb, win) || len(chain) >= capN {
				continue
			}
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
	}

	// Pass 1 (ascending X): offsets from the target.
	order := sc.order[:0]
	for i := range chain {
		order = append(order, i)
	}
	// Insertion sort by ascending X (see the left-chain mirror).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hc.X[chain[order[j]].id] < hc.X[chain[order[j-1]].id]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ci := range order {
		c := chain[ci].id
		off := sc.seedOff(c)
		for _, lk := range l.occ.slots(c) {
			ln := lk.left
			if ln < 0 {
				continue
			}
			li, ok2 := sc.chainAt(ln)
			if !ok2 {
				continue
			}
			req := chain[li].off + int64(hc.W[ln]) + l.spacing(hc.Type[ln], hc.Type[c])
			if req > off {
				off = req
			}
		}
		if off == 0 {
			off = -1
		}
		chain[ci].off = off
	}

	// Pass 2 (descending X): expansion bounds (maxPos).
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := chain[ci].id
		cw := int64(hc.W[c])
		var maxPos int64 = 1 << 60
		for _, lk := range l.occ.slots(c) {
			nb := lk.right
			if nb < 0 {
				if v := l.winPadHi(win, grid.Hi(lk.sid)) - cw; v < maxPos {
					maxPos = v
				}
				continue
			}
			if ni, ok2 := sc.chainAt(nb); ok2 {
				b := chain[ni].bound - l.spacing(hc.Type[c], hc.Type[nb]) - cw
				if b < maxPos {
					maxPos = b
				}
			} else {
				// Non-local barrier, clamped to the padded window edge
				// (see the left-chain mirror for why).
				b := int64(hc.X[nb]) - l.spacing(hc.Type[c], hc.Type[nb]) - cw
				if w := l.winPadHi(win, grid.Hi(lk.sid)) - cw; w < b {
					b = w
				}
				if b < maxPos {
					maxPos = b
				}
			}
		}
		chain[ci].bound = maxPos
		if chain[ci].off > 0 {
			if v := maxPos - chain[ci].off; v < xhi {
				xhi = v
			}
		}
	}
	sc.chainR, sc.queue, sc.order = chain, queue, order
	return chain, xhi
}

// oracleEvaluate is evaluateInsertion as it was before the pushed-cell
// walk: it builds both full push chains, then the displacement curve
// over every chain cell. The returned plan's moves alias sc.moves.
func (l *Legalizer) oracleEvaluate(sc *oracleScratch, t model.CellID, y, h, x0 int, win geom.Rect) (plan, bool) {
	hc := l.hot
	grid := l.grid
	tf := hc.Fence[t]
	tw := int(hc.W[t])
	tgx := int64(hc.GX[t])
	siteW := int64(l.d.Tech.SiteW)
	rowH := int64(l.d.Tech.RowH)

	// Quick rejection: every span row must hold at least the target's
	// width of free sites inside the window. This necessary condition
	// skips the expensive chain construction for insertion points deep
	// inside packed regions.
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return plan{}, false
		}
		wl, wh := grid.Lo(sid), grid.Hi(sid)
		if win.XLo > wl {
			wl = win.XLo
		}
		if win.XHi < wh {
			wh = win.XHi
		}
		if wh-wl < tw ||
			(wh-wl)-l.occ.occupiedWidth(sid, wl, wh) < tw {
			return plan{}, false
		}
	}

	left, xlo := l.buildLeftChain(sc, t, y, h, x0, win)
	if xlo >= chainInfeasible {
		return plan{}, false
	}
	right, xhi := l.buildRightChain(sc, t, y, h, x0, win)
	if xhi <= -chainInfeasible {
		return plan{}, false
	}
	if int64(win.XLo) > xlo {
		xlo = int64(win.XLo)
	}
	if v := int64(win.XHi) - int64(tw); v < xhi {
		xhi = v
	}
	if xlo > xhi {
		return plan{}, false
	}

	// The summed curve lives in the scratch and is accumulated in
	// place: the former per-cell curve constructors allocated a curve
	// plus breakpoint storage for every local cell of every insertion
	// point. It is built on [xlo, xhi] only, the range MinOn and the
	// rail slide below read; most chain breakpoints lie outside it.
	total := &sc.total
	total.ResetAbs(tgx, siteW, int64(geom.Abs(y-int(hc.GY[t])))*rowH, xlo, xhi)
	// Each local cell contributes its *incremental* displacement: the
	// curve minus its current (sunk) displacement. Without the
	// subtraction, insertion points whose windows happen to contain
	// already-displaced cells would look spuriously expensive, biasing
	// the row choice. (For MLL semantics the baseline is zero anyway.)
	for i := range left {
		if left[i].off <= 0 {
			continue
		}
		id := left[i].id
		cx := int64(hc.X[id])
		g := int64(hc.GX[id])
		if l.opt.CostFromCurrent {
			g = cx // MLL semantics: cost from current position
		}
		total.AddPushLeft(cx, g, left[i].off, siteW)
		total.AddConst(-siteW * abs64(cx-g))
	}
	for i := range right {
		if right[i].off <= 0 {
			continue
		}
		id := right[i].id
		cx := int64(hc.X[id])
		g := int64(hc.GX[id])
		if l.opt.CostFromCurrent {
			g = cx
		}
		total.AddPushRight(cx, g, right[i].off, siteW)
		total.AddConst(-siteW * abs64(cx-g))
	}

	bestX, bestV := total.MinOn(xlo, xhi, tgx)

	// Vertical-rail avoidance: slide to the nearest clean x by curve
	// cost (paper Section 3.4).
	if l.opt.Rules != nil && l.opt.Rules.XForbidden(hc.Type[t], int(bestX), y) {
		const scanCap = 256
		found := false
		var candX, candV int64
		for step := int64(1); step <= scanCap; step++ {
			if x := bestX - step; x >= xlo && !l.opt.Rules.XForbidden(hc.Type[t], int(x), y) {
				candX, candV = x, total.Eval(x)
				found = true
				break
			}
		}
		for step := int64(1); step <= scanCap; step++ {
			x := bestX + step
			if x > xhi {
				break
			}
			if !l.opt.Rules.XForbidden(hc.Type[t], int(x), y) {
				if v := total.Eval(x); !found || v < candV {
					candX, candV = x, v
				}
				break
			}
		}
		if !found {
			return plan{}, false
		}
		bestX, bestV = candX, candV
	}
	if l.opt.Rules != nil {
		bestV += l.opt.Rules.IOPenalty(hc.Type[t], int(bestX), y)
	}

	p := plan{target: t, x: int(bestX), y: y, x0: x0, cost: bestV, ok: true}
	moves := sc.moves[:0]
	for i := range left {
		if left[i].off <= 0 {
			continue
		}
		id := left[i].id
		cx := int64(hc.X[id])
		nx := bestX - left[i].off
		if cx < nx {
			nx = cx
		}
		if nx != cx {
			moves = append(moves, move{id: id, newX: int(nx)})
		}
	}
	for i := range right {
		if right[i].off <= 0 {
			continue
		}
		id := right[i].id
		cx := int64(hc.X[id])
		nx := bestX + right[i].off
		if cx > nx {
			nx = cx
		}
		if nx != cx {
			moves = append(moves, move{id: id, newX: int(nx)})
		}
	}
	sc.moves = moves
	p.moves = moves
	return p, true
}

// evaluateInsertion must return the reference's plan at every insertion
// point: feasibility, x, cost, and the same moves (compared sorted by
// cell, since the walk finds them in another order). The occupancies
// are randomized mid-run states (a Workers 1 run stopped after a few
// batches) of designs with heights 1 to 3, a fence, edge spacing and
// the fakeRules row and x rules. Each unplaced cell is evaluated in its
// first five windows, the last of them the full core, under both cost
// baselines and several chain caps, capped and uncapped chains alike;
// one scratch serves all rows of a window, as in bestInWindow.
func TestPushedChainsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1907))
	byCell := func(ms []move) []move {
		ms = slices.Clone(ms)
		slices.SortFunc(ms, func(a, b move) int { return cmp.Compare(a.id, b.id) })
		return ms
	}
	var sc scratch
	var osc oracleScratch
	points, feasible, moved := 0, 0, 0
	for trial := 0; trial < 10; trial++ {
		d := randomDesign(rng, 80+rng.Intn(30), 10+rng.Intn(4), 112+rng.Intn(25), true)
		d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 2}}
		for i := range d.Types {
			d.Types[i].EdgeL = uint8(i % 2)
			d.Types[i].EdgeR = uint8((i + 1) % 2)
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		placed := make(map[model.CellID]bool)
		stopAfter, batches := 10+rng.Intn(30), 0
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
			if !placed[id] && len(open) < 6 {
				open = append(open, id)
			}
		}
		for _, fromCurrent := range []bool{false, true} {
			for _, maxChain := range []int{1, 2, 3, 5, 8, 0} {
				l.opt.CostFromCurrent = fromCurrent
				l.opt.MaxChain = Options{MaxChain: maxChain}.withDefaults().MaxChain
				for _, id := range open {
					h := int(l.hot.H[id])
					for attempt := 0; attempt <= 4; attempt++ {
						win := l.windowFor(id, attempt)
						sc.beginWindow(len(l.hot.X), len(l.grid.Segs), l.chainCap(win))
						yLo, yHi, _, _ := l.scanRange(id, win)
						for y := yLo; y <= yHi; y++ {
							for _, x0 := range l.insertionReps(&sc, l.hot.Fence[id], y, h, win) {
								got, gotOK := l.evaluateInsertion(&sc, id, y, h, x0, win)
								want, wantOK := l.oracleEvaluate(&osc, id, y, h, x0, win)
								points++
								if wantOK {
									feasible++
									if len(want.moves) > 0 {
										moved++
									}
								}
								if gotOK != wantOK || gotOK && (got.x != want.x || got.cost != want.cost ||
									!slices.Equal(byCell(got.moves), byCell(want.moves))) {
									t.Fatalf("trial %d cost-from-current %v MaxChain %d cell %d attempt %d y %d x0 %d: got %v %+v, oracle %v %+v",
										trial, fromCurrent, maxChain, id, attempt, y, x0, gotOK, got, wantOK, want)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d insertion points, %d feasible, %d with moves", points, feasible, moved)
}

// A capped side's walk runs MaxChain's breadth-first search only as far
// as its membership queries need, which the oracle cannot see: an eager
// search gives the same plans. One row holds 60 local cells of width 2,
// the first 57 abutting and the last three a site apart, so the seeds'
// size bound exceeds the cap of 48 while the target pushes only the
// three spaced cells. Their GP x and the target's lie to the left, so
// the target pushes them as far as they go.
func TestCappedWalkSearchesLazily(t *testing.T) {
	d := newDesign(200, 1)
	for k := range 57 {
		addCell(d, 0, 2*k, 0, 0)
	}
	for _, x := range []int{115, 118, 121} {
		id := addCell(d, 0, x, 0, 0)
		d.Cells[id].GX = 100
	}
	tgt := addCell(d, 0, 100, 0, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, MaxChain: 48})
	for id := range tgt {
		if err := l.occ.insert(id); err != nil {
			t.Fatal(err)
		}
	}
	win := geom.RectWH(0, 0, 190, 1) // not the full core, so the cap holds
	var sc scratch
	sc.beginWindow(len(l.hot.X), len(l.grid.Segs), l.chainCap(win))
	got, gotOK := l.evaluateInsertion(&sc, tgt, 0, 1, 123, win)
	var osc oracleScratch
	want, wantOK := l.oracleEvaluate(&osc, tgt, 0, 1, 123, win)
	if !gotOK || !wantOK || got.x != want.x || got.cost != want.cost ||
		!slices.Equal(got.moves, want.moves) || len(got.moves) > 3 {
		t.Fatalf("got %v %+v, oracle %v %+v (want at most 3 moves)", gotOK, got, wantOK, want)
	}
	if len(sc.queue) == 0 || len(sc.queue) >= 48 || int(sc.head) > len(got.moves)+1 {
		t.Fatalf("the capped search holds %d members and expanded %d for %d pushed cells, want 1 to 47 and at most %d",
			len(sc.queue), sc.head, len(got.moves), len(got.moves)+1)
	}
}

// A pooled scratch outlives many runs, so its stamps wrap around. The
// wrap must zero the stamped arrays: an entry stamped 2^32 evaluations
// earlier would otherwise read as current.
func TestScratchStampsWrap(t *testing.T) {
	var sc scratch
	sc.beginWindow(3, 2, 48)
	sc.window, sc.stamp = math.MaxUint32, math.MaxUint32
	for c := range 3 {
		sc.memo[left][c].stamp, sc.memo[right][c].stamp = 1, 1
		sc.offStamp[c], sc.inChain[c] = 1, 1
	}
	for sid := range 2 {
		sc.free[sid].stamp = 1
	}
	sc.beginWindow(3, 2, 48)
	sc.beginPoint()
	if sc.window != 1 || sc.stamp != 1 {
		t.Fatalf("stamps after the wrap: window %d, point %d, want 1 and 1", sc.window, sc.stamp)
	}
	for c := range 3 {
		if sc.memo[left][c].stamp == 1 || sc.memo[right][c].stamp == 1 ||
			sc.offStamp[c] == 1 || sc.inChain[c] == 1 {
			t.Fatalf("cell %d keeps a stamp from before the wrap", c)
		}
	}
	for sid := range 2 {
		if sc.free[sid].stamp == 1 {
			t.Fatalf("segment %d keeps a free-width stamp from before the wrap", sid)
		}
	}
}
