package mgl

import (
	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// move is one chain shift of an already-placed cell.
type move struct {
	id   model.CellID
	newX int
}

// plan is a fully evaluated insertion of the target cell: its position,
// the chain shifts that make room, and the total DBU displacement cost
// (target + shifted locals, each measured from its GP position). x0 is
// the insertion point the plan was evaluated at.
type plan struct {
	target model.CellID
	x, y   int
	x0     int
	cost   int64
	moves  []move
	ok     bool
}

// chainCell is one movable local cell of a push chain.
type chainCell struct {
	id  model.CellID
	off int64 // longest-path offset from the target x (includes spacing)
	// bound is minPos for left chains (lowest legal left edge) and
	// maxPos for right chains (highest legal left edge).
	bound int64
}

// spacing returns the edge-spacing rule in sites between a left cell of
// type a and a right cell of type b.
func (l *Legalizer) spacing(a, b model.CellTypeID) int64 {
	return int64(l.d.Tech.Spacing(l.d.Types[a].EdgeR, l.d.Types[b].EdgeL))
}

// winPadLo returns the left window edge as a barrier. Interior window
// edges are padded by the largest edge-spacing rule so that two batches
// inserting on both sides of a seam can never violate spacing.
func (l *Legalizer) winPadLo(win geom.Rect, segLo int) int64 {
	w := int64(win.XLo)
	if win.XLo > segLo {
		w += int64(l.maxSp)
	}
	if int64(segLo) > w {
		return int64(segLo)
	}
	return w
}

// winPadHi mirrors winPadLo for the right window edge.
func (l *Legalizer) winPadHi(win geom.Rect, segHi int) int64 {
	w := int64(win.XHi)
	if win.XHi < segHi {
		w -= int64(l.maxSp)
	}
	if int64(segHi) < w {
		return int64(segHi)
	}
	return w
}

// chainCap bounds the number of movable cells per push chain. The
// full-core window (the legalizer's last resort) lifts the bound so
// that completeness is never lost to chain truncation.
func (l *Legalizer) chainCap(win geom.Rect) int {
	core := l.d.Tech.CoreRect()
	if win.XLo == core.XLo && win.XHi == core.XHi {
		return win.W()
	}
	return l.opt.MaxChain
}

// isLocal reports whether a placed cell lies completely within the
// window (paper: only such cells may be shifted).
func (l *Legalizer) isLocal(id model.CellID, win geom.Rect) bool {
	h := l.hot
	x, y := int(h.X[id]), int(h.Y[id])
	return x >= win.XLo && y >= win.YLo &&
		x+int(h.W[id]) <= win.XHi && y+int(h.H[id]) <= win.YHi
}

// leftNeighborIdx returns, for segment sid, the index in the occupancy
// list of the nearest cell whose left edge is <= x (-1 if none).
func (l *Legalizer) leftNeighborIdx(sid int32, x int) int {
	return l.occ.splitAt(sid, x) - 1
}

const chainInfeasible = int64(1) << 60

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Chain-membership helpers on scratch. These were closures capturing
// the chain slice; as methods over explicit state they keep the chain
// builders allocation-free.

// chainAt returns the chain index of id if it carries the current
// stamp.
func (s *scratch) chainAt(id model.CellID) (int32, bool) {
	if s.inChain[id] == s.stamp {
		return s.chainIdx[id], true
	}
	return 0, false
}

// bumpOff raises the seeded frontier offset requirement of id.
func (s *scratch) bumpOff(id model.CellID, off int64) {
	if s.offStamp[id] != s.stamp || off > s.offReq[id] {
		s.offStamp[id] = s.stamp
		s.offReq[id] = off
	}
}

// seedOff returns the seeded frontier offset of id (0 if none).
func (s *scratch) seedOff(id model.CellID) int64 {
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
func (l *Legalizer) buildLeftChain(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
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
func (l *Legalizer) buildRightChain(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
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

// evaluateInsertion builds the displacement curve for the insertion
// point defined by (y, x0) and returns the best position and cost. The
// second return is false if the point is infeasible. The returned
// plan's moves alias sc.moves and are only valid until the next
// evaluation with the same scratch.
func (l *Legalizer) evaluateInsertion(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) (plan, bool) {
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
