package route

import (
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Rules adapts a Checker to the mgl.Rules interface. IOPenaltyDBU is
// the additive cost charged per IO-pin overlap (paper Section 3.4 gives
// penalties to insertion points overlapping IO pins). Rules is
// read-only after NewRules, so MGL's evaluation workers share it.
type Rules struct {
	C            *Checker
	IOPenaltyDBU int64

	// railMod is the row period of the horizontal-rail answers (0 when
	// there are no rails), and rowBad[ct][phase] answers RowForbidden
	// for a cell of type ct whose bottom row has that phase.
	railMod int
	rowBad  [][]bool
}

// NewRules builds the MGL routability hook. A zero penalty defaults to
// four row heights per overlapping pin.
func NewRules(c *Checker) *Rules {
	r := &Rules{C: c, IOPenaltyDBU: 4 * int64(c.d.Tech.RowH)}
	t := &c.d.Tech
	if t.HRailPeriod <= 0 {
		return r
	}
	// Only the row phase matters: y modulo the rail period, extended to
	// the parity period when odd-height flipping is enabled. A period
	// longer than the core has no more phases than the core has rows.
	r.railMod = t.HRailPeriod
	if t.FlipOddRows && r.railMod%2 == 1 {
		r.railMod *= 2
	}
	r.rowBad = make([][]bool, len(c.d.Types))
	for ct := range r.rowBad {
		bad := make([]bool, min(r.railMod, t.NumRows))
		for y := range bad {
			for pi, p := range c.d.Types[ct].Pins {
				if p.Layer != t.HRailLayer && p.Layer+1 != t.HRailLayer {
					continue
				}
				box := c.pinBox(model.CellTypeID(ct), &c.d.Types[ct].Pins[pi], 0, y)
				bad[y] = bad[y] || c.hitsHRail(int64(box.YLo), int64(box.YHi))
			}
		}
		r.rowBad[ct] = bad
	}
	return r
}

// RowForbidden reports whether any pin of the type shorts or blocks
// against a horizontal rail when the cell's bottom row is y, a core row.
func (r *Rules) RowForbidden(ct model.CellTypeID, y int) bool {
	return r.railMod > 0 && r.rowBad[ct][y%r.railMod]
}

// XForbidden reports whether any pin of the type conflicts with a
// vertical P/G stripe when placed at site x.
func (r *Rules) XForbidden(ct model.CellTypeID, x, y int) bool {
	t := &r.C.d.Tech
	if t.VRailPitch <= 0 {
		return false
	}
	dx := int64(x) * int64(t.SiteW)
	for _, p := range r.C.d.Types[ct].Pins {
		if p.Layer != t.VRailLayer && p.Layer+1 != t.VRailLayer {
			continue
		}
		if r.C.hitsVRail(int64(p.Box.XLo)+dx, int64(p.Box.XHi)+dx) {
			return true
		}
	}
	return false
}

// IOPenalty charges IOPenaltyDBU per pin overlapping an IO pin (same
// layer or one layer up) at position (x,y).
func (r *Rules) IOPenalty(ct model.CellTypeID, x, y int) int64 {
	if len(r.C.d.IOPins) == 0 {
		return 0
	}
	var pen int64
	for pi, p := range r.C.d.Types[ct].Pins {
		box := r.C.pinBox(ct, &r.C.d.Types[ct].Pins[pi], x, y)
		if r.C.hitsIO(box, p.Layer) || r.C.hitsIO(box, p.Layer+1) {
			pen += r.IOPenaltyDBU
		}
	}
	return pen
}

// RangeProvider returns the refine feasible-range hook of Section 3.4:
// for each cell, the maximal contiguous run of x positions around its
// current x that is free of vertical-rail conflicts (and clipped to its
// segment span by refine itself). Cells already on a conflicting x get
// no restriction.
func (r *Rules) RangeProvider(grid *seg.Grid) func(model.CellID) (int, int, bool) {
	d := r.C.d
	return func(id model.CellID) (int, int, bool) {
		c := &d.Cells[id]
		ct := &d.Types[c.Type]
		if r.XForbidden(c.Type, c.X, c.Y) {
			return 0, 0, false
		}
		span, ok := grid.SpanInterval(c.Fence, c.X, c.Y, ct.Height)
		if !ok {
			return 0, 0, false
		}
		lo, hi := c.X, c.X
		for lo > span.Lo && !r.XForbidden(c.Type, lo-1, c.Y) {
			lo--
		}
		for hi < span.Hi-ct.Width && !r.XForbidden(c.Type, hi+1, c.Y) {
			hi++
		}
		return lo, hi, true
	}
}
