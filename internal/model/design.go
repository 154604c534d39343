package model

import (
	"fmt"

	"mclegal/internal/geom"
)

// CellID indexes Design.Cells.
type CellID int32

// FenceID identifies the fence region a cell is assigned to.
// DefaultFence is the implicit region outside all drawn fences; drawn
// fences are numbered 1..len(Design.Fences).
type FenceID int32

// DefaultFence is the fence ID of cells not assigned to any drawn fence.
const DefaultFence FenceID = 0

// Cell is one movable (or fixed) instance.
type Cell struct {
	Name  string
	Type  CellTypeID
	Fence FenceID
	// GX, GY is the global-placement position (site,row), the
	// reference every displacement is measured from.
	GX, GY int
	// X, Y is the current position (site,row).
	X, Y int
	// Fixed cells are pre-placed obstacles (macros); the legalizer
	// never moves them and they belong to no fence.
	Fixed bool
}

// NetPin is one connection of a net: a cell plus the DBU offset of the
// pin from the cell origin (used for HPWL only).
type NetPin struct {
	Cell   CellID
	DX, DY int
}

// Net is a signal net; only its HPWL matters to the legalizer.
type Net struct {
	Name string
	Pins []NetPin
}

// Fence is a named fence region made of one or more rectangles in
// site/row coordinates. Cells assigned to the fence must be fully inside
// its rectangles; all other cells must stay outside (ISPD 2015
// semantics, paper reference [17]).
type Fence struct {
	Name  string
	Rects []geom.Rect
}

// IOPin is a fixed terminal shape in absolute DBU used by the pin
// access/short checks.
type IOPin struct {
	Name  string
	Layer int
	Box   geom.Rect
}

// Design is a complete legalization instance.
type Design struct {
	Name  string
	Tech  Tech
	Types []CellType
	Cells []Cell
	Nets  []Net
	// Fences[k] has FenceID k+1.
	Fences    []Fence
	IOPins    []IOPin
	Blockages []geom.Rect // site/row units; rows under a blockage are unusable
}

// Type returns the master of cell i.
func (d *Design) Type(i CellID) *CellType { return &d.Types[d.Cells[i].Type] }

// CellRect returns the current occupied area of cell i in site/row
// coordinates.
func (d *Design) CellRect(i CellID) geom.Rect {
	c := &d.Cells[i]
	ct := &d.Types[c.Type]
	return geom.RectWH(c.X, c.Y, ct.Width, ct.Height)
}

// GPRect returns the global-placement footprint of cell i.
func (d *Design) GPRect(i CellID) geom.Rect {
	c := &d.Cells[i]
	ct := &d.Types[c.Type]
	return geom.RectWH(c.GX, c.GY, ct.Width, ct.Height)
}

// DispDBU returns the displacement of cell i from its GP position in
// DBU (|dx|*SiteW + |dy|*RowH).
func (d *Design) DispDBU(i CellID) int64 {
	c := &d.Cells[i]
	return int64(geom.Abs(c.X-c.GX))*int64(d.Tech.SiteW) +
		int64(geom.Abs(c.Y-c.GY))*int64(d.Tech.RowH)
}

// DispRows returns the displacement of cell i in row-height units, the
// unit of the contest metric.
func (d *Design) DispRows(i CellID) float64 {
	return float64(d.DispDBU(i)) / float64(d.Tech.RowH)
}

// FenceRects returns the rectangles of fence f, or nil for the default
// fence (whose region is the core minus all drawn fences).
func (d *Design) FenceRects(f FenceID) []geom.Rect {
	if f == DefaultFence {
		return nil
	}
	return d.Fences[f-1].Rects
}

// MaxHeight returns the tallest cell height (in rows) present in the
// library, the paper's H.
func (d *Design) MaxHeight() int {
	h := 0
	for i := range d.Types {
		if d.Types[i].Height > h {
			h = d.Types[i].Height
		}
	}
	return h
}

// MovableCount returns the number of non-fixed cells.
func (d *Design) MovableCount() int {
	n := 0
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			n++
		}
	}
	return n
}

// ResetToGP moves every movable cell back to its GP position.
func (d *Design) ResetToGP() {
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			continue
		}
		d.Cells[i].X = d.Cells[i].GX
		d.Cells[i].Y = d.Cells[i].GY
	}
}

// SnapshotXY returns a copy of the current positions of all cells, to be
// restored with RestoreXY. Used by before/after experiments.
func (d *Design) SnapshotXY() []geom.Pt {
	out := make([]geom.Pt, len(d.Cells))
	for i := range d.Cells {
		out[i] = geom.Pt{X: d.Cells[i].X, Y: d.Cells[i].Y}
	}
	return out
}

// RestoreXY restores positions captured by SnapshotXY.
func (d *Design) RestoreXY(xy []geom.Pt) {
	if len(xy) != len(d.Cells) {
		panic("model: RestoreXY length mismatch")
	}
	for i := range d.Cells {
		d.Cells[i].X = xy[i].X
		d.Cells[i].Y = xy[i].Y
	}
}

// Validate reports the first structural inconsistency in the design
// (bad references, malformed fences, fixed cells assigned to a fence).
// It does not check placement, inside the core or out of it; that is
// eval.Audit's job.
func (d *Design) Validate() error {
	if err := d.Tech.Validate(); err != nil {
		return err
	}
	if len(d.Types) == 0 {
		return fmt.Errorf("design %q: empty library", d.Name)
	}
	for i := range d.Types {
		if err := d.Types[i].Validate(&d.Tech); err != nil {
			return err
		}
	}
	core := d.Tech.CoreRect()
	for k := range d.Fences {
		f := &d.Fences[k]
		if len(f.Rects) == 0 {
			return fmt.Errorf("design %q: fence %q has no rectangles", d.Name, f.Name)
		}
		for _, r := range f.Rects {
			if r.Empty() {
				return fmt.Errorf("design %q: fence %q has an empty rect", d.Name, f.Name)
			}
			if !core.Contains(r) {
				return fmt.Errorf("design %q: fence %q rect %v outside core %v", d.Name, f.Name, r, core)
			}
		}
	}
	for i := range d.Cells {
		c := &d.Cells[i]
		if int(c.Type) < 0 || int(c.Type) >= len(d.Types) {
			return fmt.Errorf("design %q: cell %d bad type %d", d.Name, i, c.Type)
		}
		if int(c.Fence) < 0 || int(c.Fence) > len(d.Fences) {
			return fmt.Errorf("design %q: cell %d bad fence %d", d.Name, i, c.Fence)
		}
		if c.Fixed && c.Fence != DefaultFence {
			return fmt.Errorf("design %q: fixed cell %d assigned to fence %d", d.Name, i, c.Fence)
		}
	}
	for n := range d.Nets {
		for _, p := range d.Nets[n].Pins {
			if int(p.Cell) < 0 || int(p.Cell) >= len(d.Cells) {
				return fmt.Errorf("design %q: net %d references cell %d", d.Name, n, p.Cell)
			}
		}
	}
	for _, b := range d.Blockages {
		if b.Empty() {
			return fmt.Errorf("design %q: empty blockage", d.Name)
		}
	}
	for _, io := range d.IOPins {
		if io.Box.Empty() {
			return fmt.Errorf("design %q: IO pin %q empty", d.Name, io.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the design. Experiments use clones so
// that several legalizers can run on the same instance. The copy is
// faithful down to slice nil-ness, so a clone is deep-equal to its
// original (the gate rollback tests compare against one).
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:      d.Name,
		Tech:      d.Tech,
		Cells:     append([]Cell(nil), d.Cells...),
		IOPins:    append([]IOPin(nil), d.IOPins...),
		Blockages: append([]geom.Rect(nil), d.Blockages...),
	}
	if d.Types != nil {
		nd.Types = make([]CellType, len(d.Types))
		for i := range d.Types {
			ct := d.Types[i]
			ct.Pins = append([]PinShape(nil), d.Types[i].Pins...)
			nd.Types[i] = ct
		}
	}
	if d.Nets != nil {
		nd.Nets = make([]Net, len(d.Nets))
		for i := range d.Nets {
			nd.Nets[i] = Net{Name: d.Nets[i].Name, Pins: append([]NetPin(nil), d.Nets[i].Pins...)}
		}
	}
	if d.Fences != nil {
		nd.Fences = make([]Fence, len(d.Fences))
		for i := range d.Fences {
			nd.Fences[i] = Fence{Name: d.Fences[i].Name, Rects: append([]geom.Rect(nil), d.Fences[i].Rects...)}
		}
	}
	return nd
}
