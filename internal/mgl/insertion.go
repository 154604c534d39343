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

// member reports whether cell c belongs to a push chain: any local cell
// of an uncapped chain, the cells capChain marked in a capped one.
func (l *Legalizer) member(sc *scratch, c model.CellID, win geom.Rect, capped bool) bool {
	if capped {
		return sc.inChain[c] == sc.stamp
	}
	return l.isLocal(c, win)
}

// reach holds the memoized bounds of one cell on one side (see bound),
// valid while stamp matches the evaluation that computed it.
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

// bound returns c's memoized bounds on side s, computing them on first
// use. bound is the lowest position chain member c can be pushed to
// (the paper's compression bound: every member beyond it pushed as far
// as it goes). A far neighbour outside the chain is a barrier at its
// current position, clamped to the padded window edge: chain cells
// must never leave the window, or parallel batches could collide.
//
// An uncapped chain holds every local cell, and the result is memoized
// for the window (see scratch.beginWindow). It then also carries size,
// a bound on the number of members c's part of the chain holds (c
// plus, summed over its distinct far neighbours, theirs) saturated at
// sc.capN+1, and floor, which no capped chain's bound of c undercuts:
// at each local far neighbour it takes the lower of the member and the
// barrier term. A capped chain holds the cells capChain marked, and
// the result is memoized for the insertion point.
func (l *Legalizer) bound(sc *scratch, s side, c model.CellID, win geom.Rect, capped bool) *reach {
	m, stamp := &sc.memo[s][c], sc.window
	if capped {
		m, stamp = &sc.capMemo[c], sc.stamp
	}
	if m.stamp == stamp {
		return m
	}
	r := reach{stamp: stamp, size: 1, bound: -1 << 60, floor: -1 << 60}
	slots := l.occ.slots(c)
	for k, lk := range slots {
		nb := lk.away(s)
		if nb < 0 {
			e := l.segEnd(s, win, lk.sid)
			r.bound, r.floor = max(r.bound, e), max(r.floor, e)
			continue
		}
		g := l.gap(s, nb, c)
		if !l.member(sc, nb, win, capped) {
			barrier := max(l.pos(s, nb)+g, l.segEnd(s, win, lk.sid))
			r.bound, r.floor = max(r.bound, barrier), max(r.floor, barrier)
			continue
		}
		nr := l.bound(sc, s, nb, win, capped)
		r.bound = max(r.bound, nr.bound+g)
		if capped {
			continue
		}
		r.floor = max(r.floor, min(nr.floor+g, max(l.pos(s, nb)+g, l.segEnd(s, win, lk.sid))))
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

// seedLimit returns the target's lowest position on side s: bar, the
// barriers' bound, raised by every seed's compression bound plus its
// offset. Along a chain a member's bound plus offset never exceeds that
// of the seed it hangs from (docs/ALGORITHMS.md), so the seeds decide
// it alone. Uncapped, it also returns the same limit taken over the
// seeds' floors, and the sum of their chain-size bounds.
func (l *Legalizer) seedLimit(sc *scratch, s side, bar int64, win geom.Rect, capped bool) (lim, floor int64, n int32) {
	lim, floor = bar, bar
	for _, c := range sc.front[s] {
		r := l.bound(sc, s, c, win, capped)
		lim = max(lim, r.bound+sc.offReq[c])
		floor = max(floor, r.floor+sc.offReq[c])
		n += r.size
	}
	return lim, floor, n
}

// capChain marks the members of side s's chain when the cap may bind,
// by the breadth-first search Options.MaxChain defines: the seeds in
// row order, then the far neighbours of each member, bottom row first;
// a local cell found when the chain already holds sc.capN cells stays
// out, a barrier at its current position.
func (l *Legalizer) capChain(sc *scratch, s side, win geom.Rect) {
	q := append(sc.queue[:0], sc.front[s]...)
	for _, c := range q {
		sc.inChain[c] = sc.stamp
	}
	for i := 0; i < len(q) && len(q) < int(sc.capN); i++ {
		for _, lk := range l.occ.slots(q[i]) {
			nb := lk.away(s)
			if nb < 0 || sc.inChain[nb] == sc.stamp || !l.isLocal(nb, win) || len(q) >= int(sc.capN) {
				continue
			}
			sc.inChain[nb] = sc.stamp
			q = append(q, nb)
		}
	}
	sc.queue = q
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
// target pushes somewhere on its feasible range, whose lowest position
// on side s is lo, with their offsets from the target x. It expands the
// frontier from the seeds one cell at a time, nearest the target first,
// so a cell's offset is final when it is taken: the largest over its
// seed rows and its pushed near neighbours. A cell whose position plus
// offset does not exceed lo stays where it is over the whole range,
// adds exactly 0 to the curve, and pushes none of its far neighbours
// (docs/ALGORITHMS.md), so the walk does not expand it.
func (l *Legalizer) walk(sc *scratch, s side, lo, tw int64, win geom.Rect, capped bool) {
	hc := l.hot
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
		if l.pos(s, c)+off <= lo {
			continue
		}
		xoff := off
		if s == right {
			xoff += tw - int64(hc.W[c])
		}
		sc.pushed = append(sc.pushed, push{id: c, off: xoff})
		for _, lk := range l.occ.slots(c) {
			if nb := lk.away(s); nb >= 0 && l.member(sc, nb, win, capped) {
				sc.require(s, nb, off+l.gap(s, nb, c))
			}
		}
	}
}

// targetRange returns the range of the target's x in win that the
// lowest positions lim of its two sides allow.
func targetRange(lim [2]int64, win geom.Rect, tw int) (xlo, xhi int64) {
	return max(lim[left], int64(win.XLo)), min(-lim[right], int64(win.XHi)) - int64(tw)
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

	// In every span row the nearest cell on each side of x0 is a seed
	// of that side's chain if it is local; otherwise it, or the segment
	// end, is a barrier. bar[s] is the target's lowest position on side
	// s that the barriers allow.
	sc.beginPoint()
	bar := [2]int64{-1 << 60, -1 << 60}
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
	// bounds sum to at most the cap, the cap cannot bind and every local
	// cell is a member. Otherwise capChain decides membership and the
	// bounds are taken over its members, unless the floors already
	// prove the point infeasible.
	var lim, floor [2]int64
	var capped [2]bool
	for s := left; s <= right; s++ {
		var n int32
		lim[s], floor[s], n = l.seedLimit(sc, s, bar[s], win, false)
		capped[s] = n > sc.capN
		if !capped[s] {
			floor[s] = lim[s]
		}
	}
	if xlo, xhi := targetRange(floor, win, tw); xlo > xhi {
		return plan{}, false
	}
	for s := left; s <= right; s++ {
		if capped[s] {
			l.capChain(sc, s, win)
			lim[s], _, _ = l.seedLimit(sc, s, bar[s], win, true)
		}
	}
	xlo, xhi := targetRange(lim, win, tw)
	if xlo > xhi {
		return plan{}, false
	}
	l.walk(sc, left, xlo, int64(tw), win, capped[left])
	nLeft := len(sc.pushed)
	l.walk(sc, right, -xhi-int64(tw), int64(tw), win, capped[right])

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
