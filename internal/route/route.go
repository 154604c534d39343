// Package route implements the paper's routability model (Sections 2
// and 3.4): pin shorts (a signal pin overlapping a P/G rail or IO pin
// on the same metal layer), pin access violations (overlap with a rail
// or IO pin one layer up), and edge-spacing rules.
//
// It provides three things:
//
//   - Checker, the violation counter used by the evaluation (Table 1's
//     "Pin Access" and "Edge Space" columns);
//   - an mgl.Rules implementation that steers MGL away from violating
//     rows/x-positions and penalizes IO overlaps;
//   - a feasible-range provider for the fixed-row-and-order refinement
//     (Section 3.4: C_L = C_R = C).
package route

import (
	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// Checker precomputes the rail geometry of a design for fast
// per-position queries. It is safe for concurrent use after creation.
type Checker struct {
	d *model.Design

	hQ      int64 // horizontal rail period in DBU (0 = none)
	hHalfW  int64
	vPitch  int64 // vertical stripe pitch in DBU (0 = none)
	vOff    int64 // first stripe x in DBU
	vW      int64
	coreW   int64
	ioByLay [8][]geom.Rect // IO pin boxes per layer
}

// NewChecker builds a checker for d.
func NewChecker(d *model.Design) *Checker {
	c := &Checker{d: d}
	t := &d.Tech
	if t.HRailPeriod > 0 {
		c.hQ = int64(t.HRailPeriod) * int64(t.RowH)
		c.hHalfW = int64(t.HRailHalfW)
	}
	if t.VRailPitch > 0 && t.VRailW > 0 {
		c.vPitch = int64(t.VRailPitch) * int64(t.SiteW)
		c.vOff = int64(t.VRailOffset) * int64(t.SiteW)
		c.vW = int64(t.VRailW)
	}
	c.coreW = int64(t.NumSites) * int64(t.SiteW)
	for _, io := range d.IOPins {
		if io.Layer >= 0 && io.Layer < len(c.ioByLay) {
			c.ioByLay[io.Layer] = append(c.ioByLay[io.Layer], io.Box)
		}
	}
	return c
}

// hitsHRail reports whether the DBU y-interval [lo,hi) crosses a
// horizontal rail.
func (c *Checker) hitsHRail(lo, hi int64) bool {
	if c.hQ == 0 || hi <= lo {
		return false
	}
	// A rail center jQ overlaps iff jQ in (lo-halfW, hi+halfW).
	a := lo - c.hHalfW + 1
	b := hi + c.hHalfW - 1 // inclusive range [a,b]
	if b < a {
		return false
	}
	j := a / c.hQ
	if j*c.hQ < a {
		j++
	}
	if a <= 0 && 0 <= b {
		return true // j = 0 rail
	}
	return j*c.hQ <= b && j >= 0
}

// hitsVRail reports whether the DBU x-interval [lo,hi) crosses a
// vertical P/G stripe.
func (c *Checker) hitsVRail(lo, hi int64) bool {
	if c.vPitch == 0 || hi <= lo {
		return false
	}
	// Stripe k starts at s = vOff + k*vPitch, k >= 0, s < coreW;
	// overlap iff s in (lo - vW, hi).
	a := lo - c.vW + 1
	b := hi - 1 // inclusive [a,b] for s
	if b < a {
		return false
	}
	if a < c.vOff {
		a = c.vOff
	}
	if m := c.coreW - 1; b > m {
		b = m
	}
	if b < a {
		return false
	}
	k := (a - c.vOff) / c.vPitch
	s := c.vOff + k*c.vPitch
	if s < a {
		s += c.vPitch
	}
	return s <= b
}

// flipped reports whether a cell of the given type placed with bottom
// row y is vertically mirrored (odd-height cells on the "other" parity,
// when Tech.FlipOddRows is enabled).
func (c *Checker) flipped(ct model.CellTypeID, y int) bool {
	t := &c.d.Tech
	if !t.FlipOddRows {
		return false
	}
	h := c.d.Types[ct].Height
	return h%2 == 1 && ((y%2)+2)%2 != t.EvenBottomParity
}

// pinBox returns the absolute DBU box of pin p of a cell of type ct
// placed at site (x, y), accounting for vertical mirroring.
func (c *Checker) pinBox(ct model.CellTypeID, p *model.PinShape, x, y int) geom.Rect {
	dx := x * c.d.Tech.SiteW
	dy := y * c.d.Tech.RowH
	yLo, yHi := p.Box.YLo, p.Box.YHi
	if c.flipped(ct, y) {
		hDBU := c.d.Types[ct].Height * c.d.Tech.RowH
		yLo, yHi = hDBU-p.Box.YHi, hDBU-p.Box.YLo
	}
	return geom.Rect{
		XLo: p.Box.XLo + dx, YLo: yLo + dy,
		XHi: p.Box.XHi + dx, YHi: yHi + dy,
	}
}

// hitsIO reports whether box overlaps any IO pin on the given layer.
func (c *Checker) hitsIO(box geom.Rect, layer int) bool {
	if layer < 0 || layer >= len(c.ioByLay) {
		return false
	}
	for _, io := range c.ioByLay[layer] {
		if box.Overlaps(io) {
			return true
		}
	}
	return false
}

// PinStatus classifies one pin placement.
type PinStatus struct {
	Short  bool // overlap with a rail/IO pin on the same layer
	Access bool // overlap with a rail/IO pin one layer up
}

// CheckPin classifies pin p of a cell of type ct placed at (x,y).
func (c *Checker) CheckPin(ct model.CellTypeID, pinIdx, x, y int) PinStatus {
	p := &c.d.Types[ct].Pins[pinIdx]
	box := c.pinBox(ct, p, x, y)
	var st PinStatus
	t := &c.d.Tech
	// Rails on the pin's own layer: short.
	if p.Layer == t.HRailLayer && c.hitsHRail(int64(box.YLo), int64(box.YHi)) {
		st.Short = true
	}
	if p.Layer == t.VRailLayer && c.hitsVRail(int64(box.XLo), int64(box.XHi)) {
		st.Short = true
	}
	// Rails one layer up: access.
	if p.Layer+1 == t.HRailLayer && c.hitsHRail(int64(box.YLo), int64(box.YHi)) {
		st.Access = true
	}
	if p.Layer+1 == t.VRailLayer && c.hitsVRail(int64(box.XLo), int64(box.XHi)) {
		st.Access = true
	}
	// IO pins.
	if c.hitsIO(box, p.Layer) {
		st.Short = true
	}
	if c.hitsIO(box, p.Layer+1) {
		st.Access = true
	}
	return st
}

// Violations aggregates the soft-constraint counts of a placement.
type Violations struct {
	PinShort    int
	PinAccess   int
	EdgeSpacing int
}

// Pin returns N_p, the combined pin violation count of Eq. (10).
func (v Violations) Pin() int { return v.PinShort + v.PinAccess }

// Count audits the whole placement: every movable cell's pins against
// rails and IO pins, and every pair of neighbours in a core row against
// the edge-spacing table. Each pin contributes at most one short and one
// access violation, and each pair at most one spacing violation, however
// many rows it shares.
func (c *Checker) Count() Violations {
	var v Violations
	d := c.d
	for i := range d.Cells {
		cell := &d.Cells[i]
		if cell.Fixed {
			continue
		}
		ct := cell.Type
		for pi := range d.Types[ct].Pins {
			st := c.CheckPin(ct, pi, cell.X, cell.Y)
			if st.Short {
				v.PinShort++
			}
			if st.Access {
				v.PinAccess++
			}
		}
	}
	if len(d.Tech.EdgeSpacing) == 0 {
		return v
	}
	s := d.RowSlots(nil)
	for p := 1; p < len(s); p++ {
		a, b := s[p-1], s[p]
		if a.Row != b.Row {
			continue
		}
		ta, tb := d.Type(a.Cell), d.Type(b.Cell)
		need := d.Tech.Spacing(ta.EdgeR, tb.EdgeL)
		if need > 0 && b.X-(a.X+ta.Width) < need && d.FirstMeeting(s, p) {
			v.EdgeSpacing++
		}
	}
	return v
}
