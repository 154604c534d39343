// Package eval measures placements: the hard-legality audit (overlaps,
// site/row alignment, fences, P/G parity), the contest displacement
// metrics of paper Eq. (1)-(2), HPWL, and the ICCAD 2017 score function
// of Eq. (10).
package eval

import (
	"fmt"
	"math"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Violation is one hard-legality failure found by Audit.
type Violation struct {
	Cell  model.CellID
	Other model.CellID // -1 unless an overlap
	Kind  string
	Msg   string
}

func (v Violation) String() string { return fmt.Sprintf("%s: cell %d: %s", v.Kind, v.Cell, v.Msg) }

// Audit checks hard legality of every movable cell: inside the core, on
// legal rows (P/G parity), fully inside fence-consistent segments, and
// overlap-free. It returns all violations found (empty = legal).
func Audit(d *model.Design, grid *seg.Grid) []Violation {
	var out []Violation
	add := func(c model.CellID, o model.CellID, kind, format string, args ...any) {
		out = append(out, Violation{Cell: c, Other: o, Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	core := d.Tech.CoreRect()
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		id := model.CellID(i)
		ct := &d.Types[c.Type]
		r := d.CellRect(id)
		if !core.Contains(r) {
			add(id, -1, "out-of-core", "rect %v outside core %v", r, core)
			continue
		}
		if !d.Tech.RowAllowed(ct.Height, c.Y) {
			add(id, -1, "parity", "height %d cell on row %d violates P/G alignment", ct.Height, c.Y)
		}
		if !grid.SpanOK(c.Fence, c.X, c.Y, ct.Width, ct.Height) {
			add(id, -1, "fence", "rect %v not inside fence-%d segments", r, c.Fence)
		}
	}
	s := d.RowSlots(nil)
	for p := 1; p < len(s); p++ {
		if s[p-1].Row != s[p].Row {
			continue
		}
		a, b := s[p-1].Cell, s[p].Cell
		ra, rb := d.CellRect(a), d.CellRect(b)
		// Report each overlapping pair once, on the lowest row in
		// which the two are neighbours.
		if ra.XIv().Overlaps(rb.XIv()) && d.FirstMeeting(s, p) {
			add(a, b, "overlap", "cells %d%v and %d%v overlap in row %d", a, ra, b, rb, s[p].Row)
		}
	}
	return out
}

// Metrics aggregates the paper's displacement measures for a design.
type Metrics struct {
	// AvgDisp is S_am of Eq. (2): the mean per-height-class average
	// displacement, in row-height units.
	AvgDisp float64
	// MaxDisp is the largest cell displacement in row-height units.
	MaxDisp float64
	// TotalDispSites is the summed displacement in site-width units
	// (the Table 2 metric).
	TotalDispSites float64
	// TotalDispDBU is the summed displacement in DBU.
	TotalDispDBU int64
	// MovedCells counts cells with non-zero displacement.
	MovedCells int
}

// Measure computes displacement metrics from GP positions.
func Measure(d *model.Design) Metrics {
	var m Metrics
	maxH := d.MaxHeight()
	sumByH := make([]float64, maxH+1)
	cntByH := make([]int, maxH+1)
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		h := d.Types[c.Type].Height
		dbu := d.DispDBU(model.CellID(i))
		rows := float64(dbu) / float64(d.Tech.RowH)
		sumByH[h] += rows
		cntByH[h]++
		if rows > m.MaxDisp {
			m.MaxDisp = rows
		}
		m.TotalDispDBU += dbu
		if dbu != 0 {
			m.MovedCells++
		}
	}
	classes := 0
	var acc float64
	for h := 1; h <= maxH; h++ {
		if cntByH[h] == 0 {
			continue
		}
		classes++
		acc += sumByH[h] / float64(cntByH[h])
	}
	if classes > 0 {
		m.AvgDisp = acc / float64(classes)
	}
	m.TotalDispSites = float64(m.TotalDispDBU) / float64(d.Tech.SiteW)
	return m
}

// HPWL returns the total half-perimeter wirelength of all nets in DBU,
// using current cell positions plus pin offsets.
func HPWL(d *model.Design) int64 {
	var total int64
	for n := range d.Nets {
		pins := d.Nets[n].Pins
		if len(pins) < 2 {
			continue
		}
		xmin, xmax := int64(math.MaxInt64), int64(math.MinInt64)
		ymin, ymax := xmin, xmax
		for _, p := range pins {
			c := &d.Cells[p.Cell]
			x := int64(c.X)*int64(d.Tech.SiteW) + int64(p.DX)
			y := int64(c.Y)*int64(d.Tech.RowH) + int64(p.DY)
			xmin, xmax = min(xmin, x), max(xmax, x)
			ymin, ymax = min(ymin, y), max(ymax, y)
		}
		total += (xmax - xmin) + (ymax - ymin)
	}
	return total
}

// ScoreInput carries everything Eq. (10) needs.
type ScoreInput struct {
	Metrics Metrics
	// HPWLBefore/After are the HPWL at GP and after legalization.
	HPWLBefore, HPWLAfter int64
	// PinViolations is N_p (pin access + pin short), EdgeViolations is
	// N_e.
	PinViolations, EdgeViolations int
	// Cells is m, the number of movable cells.
	Cells int
}

// Score evaluates the ICCAD 2017 contest score of Eq. (10); lower is
// better. Delta is fixed to 100 as in the contest.
func Score(in ScoreInput) float64 {
	const delta = 100.0
	sHpwl := 0.0
	if in.HPWLBefore > 0 {
		sHpwl = float64(in.HPWLAfter-in.HPWLBefore) / float64(in.HPWLBefore)
		if sHpwl < 0 {
			sHpwl = 0
		}
	}
	viol := 0.0
	if in.Cells > 0 {
		viol = float64(in.PinViolations+in.EdgeViolations) / float64(in.Cells)
	}
	return (1 + sHpwl + viol) * (1 + in.Metrics.MaxDisp/delta) * in.Metrics.AvgDisp
}
