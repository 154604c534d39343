// Package baseline reimplements the comparison legalizers of the
// paper's evaluation:
//
//   - MLL (reference [12], DAC'16): the window-based legalizer whose
//     displacement curves are anchored at current positions — realized
//     as the mgl engine with Options.CostFromCurrent.
//   - MLLImp: MLL followed by the optimal fixed-row-and-order MCF
//     refinement, the "[12]-Imp" variant whose improved numbers [9]
//     reports (Table 2 column 1).
//   - AbacusExt (reference [7], ASPDAC'17): an order-preserving
//     nearest-free-slot sweep in GP-x order standing in for Abacus
//     extended to mixed heights (Table 2 column 2).
//   - ChenLike (reference [9], DAC'17): the ordered sweep followed by
//     the globally optimal fixed-order refinement, standing in for the
//     QP/LCP formulation (Table 2 column 3).
//   - Champion: the ICCAD 2017 contest champion stand-in for Table 1 —
//     a competitive displacement-driven legalizer (MLL alone, without
//     refinement) with **no** routability or edge-spacing awareness, so
//     it produces the violation profile the contest binary shows in
//     Table 1. The real champion binary is closed-source; DESIGN.md
//     records the substitution.
//
// The greedy sweep is deliberately spacing- and pin-blind: these
// baselines model displacement-only legalizers.
package baseline

import (
	"fmt"
	"sort"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// rowOcc tracks the placed intervals of one row, sorted by Lo.
type rowOcc struct {
	ivs []geom.Interval
}

func (r *rowOcc) insert(iv geom.Interval) {
	i := sort.Search(len(r.ivs), func(k int) bool { return r.ivs[k].Lo > iv.Lo })
	r.ivs = append(r.ivs, geom.Interval{})
	copy(r.ivs[i+1:], r.ivs[i:])
	r.ivs[i] = iv
}

// orderedGreedy legalizes cells in GP-x order, honoring the horizontal
// cell order of the GP solution as the paper's type-(1) legalizers do
// ([7], [9]): within every row, cells may only be *appended* right of
// the row's frontier. When no frontier position fits (a rare corner on
// tight instances), the cell falls back to the nearest free slot. The
// per-row append discipline is exactly what makes these baselines lose
// badly on dense designs (paper Table 2, des_perf_1), because the
// frontier wastes all slack left of it.
func orderedGreedy(d *model.Design, grid *seg.Grid) error {
	nRows := d.Tech.NumRows
	occ := make([]rowOcc, nRows)
	frontier := make([]int, nRows)

	var ids []model.CellID
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, model.CellID(i))
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ca, cb := &d.Cells[ids[a]], &d.Cells[ids[b]]
		if ca.GX != cb.GX {
			return ca.GX < cb.GX
		}
		if ca.GY != cb.GY {
			return ca.GY < cb.GY
		}
		return ids[a] < ids[b]
	})

	for _, id := range ids {
		c := &d.Cells[id]
		ct := &d.Types[c.Type]
		bestCost := int64(1) << 62
		bestX, bestY := -1, -1
		for y := 0; y+ct.Height <= nRows; y++ {
			if !d.Tech.RowAllowed(ct.Height, y) {
				continue
			}
			yCost := int64(geom.Abs(y-c.GY)) * int64(d.Tech.RowH)
			if yCost >= bestCost {
				continue
			}
			x, ok := frontierSlot(d, grid, frontier, id, y)
			if !ok {
				continue
			}
			cost := int64(geom.Abs(x-c.GX))*int64(d.Tech.SiteW) + yCost
			if cost < bestCost {
				bestCost, bestX, bestY = cost, x, y
			}
		}
		if bestY < 0 {
			// Fallback: nearest free slot anywhere (order no longer
			// strictly preserved for this cell).
			for y := 0; y+ct.Height <= nRows; y++ {
				if !d.Tech.RowAllowed(ct.Height, y) {
					continue
				}
				yCost := int64(geom.Abs(y-c.GY)) * int64(d.Tech.RowH)
				if yCost >= bestCost {
					continue
				}
				x, ok := nearestSlot(d, grid, occ, id, y)
				if !ok {
					continue
				}
				cost := int64(geom.Abs(x-c.GX))*int64(d.Tech.SiteW) + yCost
				if cost < bestCost {
					bestCost, bestX, bestY = cost, x, y
				}
			}
		}
		if bestY < 0 {
			return fmt.Errorf("baseline: greedy cannot place cell %d", id)
		}
		c.X, c.Y = bestX, bestY
		for r := bestY; r < bestY+ct.Height; r++ {
			occ[r].insert(geom.Interval{Lo: bestX, Hi: bestX + ct.Width})
			if bestX+ct.Width > frontier[r] {
				frontier[r] = bestX + ct.Width
			}
		}
	}
	return nil
}

// frontierSlot returns the cheapest x >= the span rows' frontiers where
// the cell fits inside fence-consistent segments on rows [y, y+h).
func frontierSlot(d *model.Design, grid *seg.Grid, frontier []int, id model.CellID, y int) (int, bool) {
	c := &d.Cells[id]
	ct := &d.Types[c.Type]
	x := c.GX
	for r := y; r < y+ct.Height; r++ {
		if frontier[r] > x {
			x = frontier[r]
		}
	}
	for tries := 0; tries < d.Tech.NumSites; tries++ {
		if x+ct.Width > d.Tech.NumSites {
			return 0, false
		}
		span, ok := grid.SpanInterval(c.Fence, x, y, ct.Height)
		if ok && span.Hi >= x+ct.Width {
			return x, true
		}
		// Jump to the closest fence-consistent segment start right of x.
		nx := 1 << 30
		for r := y; r < y+ct.Height; r++ {
			for _, sid := range grid.Row(r) {
				s := grid.Segs[sid]
				if s.Fence == c.Fence && s.X.Lo > x && s.X.Lo < nx {
					nx = s.X.Lo
				}
			}
		}
		if nx >= 1<<30 {
			return 0, false
		}
		x = nx
	}
	return 0, false
}

// nearestSlot returns the free x closest to the cell's GP x where it
// fits on rows [y, y+h) inside fence-consistent segments.
func nearestSlot(d *model.Design, grid *seg.Grid, occ []rowOcc, id model.CellID, y int) (int, bool) {
	c := &d.Cells[id]
	ct := &d.Types[c.Type]
	w := ct.Width

	// Sweep boundaries: segment edges and occupied interval edges of
	// every span row.
	var cuts []int
	for r := y; r < y+ct.Height; r++ {
		for _, sid := range grid.Row(r) {
			s := grid.Segs[sid]
			if s.Fence == c.Fence {
				cuts = append(cuts, s.X.Lo, s.X.Hi)
			}
		}
		for _, iv := range occ[r].ivs {
			cuts = append(cuts, iv.Lo, iv.Hi)
		}
	}
	sort.Ints(cuts)
	// For every maximal free run, the best position clamps GX into it.
	bestX, found := 0, false
	bestD := 1 << 30
	consider := func(lo, hi int) {
		if hi-lo < w {
			return
		}
		x := lo
		if c.GX > hi-w {
			x = hi - w
		} else if c.GX > lo {
			x = c.GX
		}
		if dd := geom.Abs(x - c.GX); !found || dd < bestD {
			bestX, bestD, found = x, dd, true
		}
	}
	// Scan elementary intervals, merging consecutive free ones.
	runLo, inRun := 0, false
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo >= hi {
			continue
		}
		if freeSpan(d, grid, occ, c.Fence, lo, y, ct.Height) {
			if !inRun {
				runLo, inRun = lo, true
			}
			continue
		}
		if inRun {
			consider(runLo, lo)
			inRun = false
		}
	}
	if inRun && len(cuts) > 0 {
		consider(runLo, cuts[len(cuts)-1])
	}
	return bestX, found
}

// freeSpan reports whether site x (an elementary-interval start) is
// inside a fence-f segment and unoccupied on all rows [y, y+h).
func freeSpan(d *model.Design, grid *seg.Grid, occ []rowOcc, f model.FenceID, x, y, h int) bool {
	for r := y; r < y+h; r++ {
		s, ok := grid.At(r, x)
		if !ok || s.Fence != f {
			return false
		}
		ivs := occ[r].ivs
		i := sort.Search(len(ivs), func(k int) bool { return ivs[k].Hi > x })
		if i < len(ivs) && ivs[i].Lo <= x {
			return false
		}
	}
	return true
}
