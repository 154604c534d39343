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

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// side names one half of a push chain: left cells are pushed toward
// lower x, right cells toward higher x. The chain code serves both
// halves by mirroring the right one (see pos), so that on either side
// a pushed cell moves to a lower position.
type side int

const (
	left side = iota
	right
)

// away returns lk's neighbour on side s: the cell lk's owner pushes.
func (lk link) away(s side) model.CellID {
	if s == right {
		return lk.right
	}
	return lk.left
}

// pos returns c's position on side s: its left edge on the left, its
// negated right edge on the right.
func (l *Legalizer) pos(s side, c model.CellID) int64 {
	x := int64(l.hot.X[c])
	if s == right {
		return -x - int64(l.hot.W[c])
	}
	return x
}

// gap returns how far apart cell near must stay from its neighbour far
// on side s, as positions on that side: far's width plus the edge
// spacing between the two.
func (l *Legalizer) gap(s side, far, near model.CellID) int64 {
	ft, nt := l.hot.Type[far], l.hot.Type[near]
	if s == right {
		ft, nt = nt, ft
	}
	return int64(l.hot.W[far]) + l.spacing(ft, nt)
}

// segEnd returns segment sid's padded window edge (winPadLo, winPadHi)
// on side s, as a position on that side.
func (l *Legalizer) segEnd(s side, win geom.Rect, sid int32) int64 {
	if s == right {
		return -l.winPadHi(win, l.grid.Hi(sid))
	}
	return l.winPadLo(win, l.grid.Lo(sid))
}

// member reports whether cell c belongs to side s's push chain: any
// local cell of an uncapped chain; of a capped one, a cell that
// MaxChain's breadth-first search takes, run only until it takes c.
func (l *Legalizer) member(sc *scratch, s side, c model.CellID, win geom.Rect, capped bool) bool {
	if !l.isLocal(c, win) {
		return false
	}
	for capped && sc.inChain[c] != sc.stamp {
		if !l.capStep(sc, s, win) {
			return false
		}
	}
	return true
}

// capStep expands the next member of side s's capped chain in the
// breadth-first order Options.MaxChain defines: the seeds in row order,
// then the far neighbours of each member, bottom row first; a local
// cell found when the chain already holds sc.capN cells stays out, a
// barrier at its current position. It reports false once the search
// has ended: every member expanded, or the chain full.
func (l *Legalizer) capStep(sc *scratch, s side, win geom.Rect) bool {
	q := sc.queue
	if int(sc.head) >= len(q) || len(q) >= int(sc.capN) {
		return false
	}
	for _, lk := range l.occ.slots(q[sc.head]) {
		nb := lk.away(s)
		if nb >= 0 && sc.inChain[nb] != sc.stamp && l.isLocal(nb, win) && len(q) < int(sc.capN) {
			sc.inChain[nb] = sc.stamp
			q = append(q, nb)
		}
	}
	sc.queue, sc.head = q, sc.head+1
	return true
}

// reach holds the memoized bounds of one cell on one side (see bound),
// valid while stamp matches the window evaluation that computed them.
type reach struct {
	stamp        uint32
	size         int32
	bound, floor int64
}

// push is a cell the target pushes, with its offset from the target x:
// the target's or its own width plus the widths and spacings between.
type push struct {
	id  model.CellID
	off int64
}

// bound returns c's bounds on side s in an uncapped chain, which holds
// every local cell, memoized for the window (see scratch.beginWindow).
// bound is the lowest position c can be pushed to (the paper's
// compression bound: every member beyond it pushed as far as it goes).
// A far neighbour outside the chain is a barrier at its current
// position, clamped to the padded window edge: chain cells must never
// leave the window, or parallel batches could collide. size bounds the
// number of members c's part of the chain holds (c plus, summed over
// its distinct far neighbours, theirs), saturated at sc.capN+1. floor
// is a bound no capped chain's bound of c undercuts: at each local far
// neighbour it takes the lower of the member and the barrier term.
func (l *Legalizer) bound(sc *scratch, s side, c model.CellID, win geom.Rect) *reach {
	m := &sc.memo[s][c]
	if m.stamp == sc.window {
		return m
	}
	r := reach{stamp: sc.window, size: 1, bound: -1 << 60, floor: -1 << 60}
	slots := l.occ.slots(c)
	for k, lk := range slots {
		nb := lk.away(s)
		if nb < 0 {
			e := l.segEnd(s, win, lk.sid)
			r.bound, r.floor = max(r.bound, e), max(r.floor, e)
			continue
		}
		g := l.gap(s, nb, c)
		barrier := max(l.pos(s, nb)+g, l.segEnd(s, win, lk.sid))
		if !l.isLocal(nb, win) {
			r.bound, r.floor = max(r.bound, barrier), max(r.floor, barrier)
			continue
		}
		nr := l.bound(sc, s, nb, win)
		r.bound = max(r.bound, nr.bound+g)
		r.floor = max(r.floor, min(nr.floor+g, barrier))
		seen := false
		for _, p := range slots[:k] {
			seen = seen || p.away(s) == nb
		}
		if !seen {
			r.size = min(r.size+nr.size, sc.capN+1)
		}
	}
	*m = r
	return m
}

// seedLimit returns the target's lowest position on side s: bar raised
// by every seed's compression bound plus its offset. Along a chain a
// member's bound plus offset never exceeds that of the seed it hangs
// from (docs/ALGORITHMS.md), so the seeds decide it alone. If their
// chain-size bounds sum above the cap, it reports capped and takes the
// seeds' floors instead, which no capped limit undercuts.
func (l *Legalizer) seedLimit(sc *scratch, s side, bar int64, win geom.Rect) (lo int64, capped bool) {
	lim, floor, n := bar, bar, int32(0)
	for _, c := range sc.front[s] {
		r := l.bound(sc, s, c, win)
		lim = max(lim, r.bound+sc.offReq[c])
		floor = max(floor, r.floor+sc.offReq[c])
		n += r.size
	}
	if n > sc.capN {
		return floor, true
	}
	return lim, false
}

// require raises the offset from the target that cell c needs on side
// s to at least off, adding c to the side's frontier if it has none.
func (sc *scratch) require(s side, c model.CellID, off int64) {
	if sc.offStamp[c] != sc.stamp {
		sc.offStamp[c], sc.offReq[c] = sc.stamp, off
		sc.front[s] = append(sc.front[s], c)
	} else if off > sc.offReq[c] {
		sc.offReq[c] = off
	}
}

// walk appends to sc.pushed the members of side s's chain that the
// target pushes somewhere on its feasible range, with their offsets
// from the target x, and leaves *lo at the target's lowest position on
// side s. It expands the frontier from the seeds one cell at a time,
// nearest the target first, so a cell's offset is final when it is
// taken. A cell whose max(pos, bound) plus offset does not exceed *lo
// stays put over the whole range, adds 0 to the curve, pushes none of
// its far neighbours and cannot raise *lo, so the walk does not expand
// it. *lo is exact from the start on an uncapped side; on a capped one
// it starts at the floors, and each segment end or barrier an expanded
// cell meets raises it by the cell's offset (docs/ALGORITHMS.md).
func (l *Legalizer) walk(sc *scratch, s side, lo *int64, tw int64, win geom.Rect, capped bool) {
	hc := l.hot
	if capped {
		sc.queue, sc.head = append(sc.queue[:0], sc.front[s]...), 0
		for _, c := range sc.queue {
			sc.inChain[c] = sc.stamp
		}
	}
	for len(sc.front[s]) > 0 {
		f := sc.front[s]
		k := 0
		for i := range f {
			if s == left && hc.X[f[i]] > hc.X[f[k]] || s == right && hc.X[f[i]] < hc.X[f[k]] {
				k = i
			}
		}
		c := f[k]
		f[k] = f[len(f)-1]
		sc.front[s] = f[:len(f)-1]
		off := sc.offReq[c]
		// seedLimit memoized the bounds of every cell the seeds reach.
		if max(l.pos(s, c), sc.memo[s][c].bound)+off <= *lo {
			continue
		}
		xoff := off
		if s == right {
			xoff += tw - int64(hc.W[c])
		}
		sc.pushed = append(sc.pushed, push{id: c, off: xoff})
		for _, lk := range l.occ.slots(c) {
			nb := lk.away(s)
			switch {
			case nb >= 0 && l.member(sc, s, nb, win, capped):
				sc.require(s, nb, off+l.gap(s, nb, c))
			case capped:
				e := l.segEnd(s, win, lk.sid)
				if nb >= 0 {
					e = max(e, l.pos(s, nb)+l.gap(s, nb, c))
				}
				*lo = max(*lo, e+off)
			}
		}
	}
}

// freeWidth returns the free sites of segment sid inside win, which
// stay fixed within a window evaluation and are memoized for it.
func (l *Legalizer) freeWidth(sc *scratch, sid int32, win geom.Rect) int {
	m := &sc.free[sid]
	if m.stamp != sc.window {
		wl, wh := max(l.grid.Lo(sid), win.XLo), min(l.grid.Hi(sid), win.XHi)
		*m = segFree{stamp: sc.window, w: int32(wh - wl - l.occ.occupiedWidth(sid, wl, wh))}
	}
	return int(m.w)
}

// evaluateInsertion builds the displacement curve for the insertion
// point defined by (y, x0) and returns the best position and cost. The
// second return is false if the point is infeasible. sc must have begun
// win's evaluation (scratch.beginWindow). The returned plan's moves
// alias sc.moves and are only valid until the next evaluation with the
// same scratch.
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
	// skips the chain work for insertion points deep inside packed
	// regions.
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf || l.freeWidth(sc, sid, win) < tw {
			return plan{}, false
		}
	}

	// In every span row the nearest cell on each side of x0 is a seed
	// of that side's chain if it is local; otherwise it, or the segment
	// end, is a barrier. bar[s] is the target's lowest position on side
	// s that the barriers and the window allow.
	sc.beginPoint()
	bar := [2]int64{int64(win.XLo), -int64(win.XHi)}
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		lst := l.occ.cellsIn(sid)
		i := l.occ.splitAt(sid, x0)
		near := [2]model.CellID{-1, -1}
		if i > 0 {
			near[left] = lst[i-1]
		}
		if i < len(lst) {
			near[right] = lst[i]
		}
		for s := left; s <= right; s++ {
			switch nb := near[s]; {
			case nb < 0:
				bar[s] = max(bar[s], l.segEnd(s, win, sid))
			case !l.isLocal(nb, win):
				bar[s] = max(bar[s], l.pos(s, nb)+l.gap(s, nb, t))
			default:
				sc.require(s, nb, l.gap(s, nb, t))
			}
		}
	}

	// The seeds' bounds decide feasibility. While their chain-size
	// bounds sum to at most the cap, the cap cannot bind, every local
	// cell is a member and lo is exact. Otherwise lo starts at the
	// seeds' floors, which already prove most infeasible points
	// infeasible, and the walk raises it to the capped limit.
	var lo [2]int64
	var capped [2]bool
	for s := left; s <= right; s++ {
		lo[s], capped[s] = l.seedLimit(sc, s, bar[s], win)
	}
	if lo[left] > -lo[right]-int64(tw) {
		return plan{}, false
	}
	l.walk(sc, left, &lo[left], int64(tw), win, capped[left])
	nLeft := len(sc.pushed)
	l.walk(sc, right, &lo[right], int64(tw), win, capped[right])
	xlo, xhi := lo[left], -lo[right]-int64(tw)
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
	// Each pushed cell contributes its *incremental* displacement: the
	// curve minus its current (sunk) displacement. Without the
	// subtraction, insertion points whose windows happen to contain
	// already-displaced cells would look spuriously expensive, biasing
	// the row choice. (For MLL semantics the baseline is zero anyway.)
	for i, pc := range sc.pushed {
		cx := int64(hc.X[pc.id])
		g := int64(hc.GX[pc.id])
		if l.opt.CostFromCurrent {
			g = cx // MLL semantics: cost from current position
		}
		if i < nLeft {
			total.AddPushLeft(cx, g, pc.off, siteW)
		} else {
			total.AddPushRight(cx, g, pc.off, siteW)
		}
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
	for i, pc := range sc.pushed {
		cx := int64(hc.X[pc.id])
		nx := min(cx, bestX-pc.off)
		if i >= nLeft {
			nx = max(cx, bestX+pc.off)
		}
		if nx != cx {
			moves = append(moves, move{id: pc.id, newX: int(nx)})
		}
	}
	sc.moves = moves
	p.moves = moves
	return p, true
}
