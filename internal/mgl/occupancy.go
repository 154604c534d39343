// Package mgl implements the paper's core contribution: multi-row
// global legalization (Section 3.1). Cells are inserted sequentially
// into a window around their GP position; for every candidate insertion
// point the summed displacement curve of the target and the local cells
// is scanned at its breakpoints; the cheapest position wins and local
// cells are spread to make room.
//
// Unlike MLL (reference [12], reimplemented in internal/baseline), all
// displacement here is measured from global-placement positions, so
// costs do not accumulate over successive insertions (paper Figure 3).
package mgl

import (
	"sort"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// occupancy tracks, for every segment, the IDs of placed cells ordered
// by their current x. A multi-row cell appears in one segment per row
// it spans.
//
// Alongside the lists it keeps, for every placed cell and every row it
// spans, a slot with the cell's left and right neighbours in that row
// and the row's segment. The push-chain code walks these links instead
// of locating a cell in its segment list again for every step.
//
// All position and width reads go through the HotCells view (shared
// with the owning Legalizer): the occupancy queries run inside the
// bestInWindow hot path, where chasing Design.Cells→Design.Types per
// cell costs a dependent load the flat arrays avoid.
//
//mclegal:ephemeral the index is rebuilt from the design's positions for every legalizer; it never outlives the run that built it
type occupancy struct {
	d    *model.Design
	hot  *model.HotCells
	grid *seg.Grid
	segs [][]model.CellID
	// prefW[sid][i] is the summed width of segs[sid][:i]; it provides
	// O(log) occupied-width queries for the quick-rejection test.
	prefW [][]int32
	// slotOff[id] is the index in links of cell id's bottom-row slot;
	// the cell owns one slot per row it spans (a prefix sum of the
	// heights in the hot view).
	slotOff []int32
	links   []link
}

// link is one row slot of a placed cell: its neighbours in the row's
// segment list (-1 for none) and the segment's ID. Placed cells of one
// segment have distinct x (the placement is legal and widths are at
// least 1), so left is the last cell with a smaller x and right the
// first with a larger one. Chain shifts preserve x-order, so only
// insert writes the links.
type link struct {
	left, right model.CellID
	sid         int32
}

func newOccupancy(d *model.Design, hot *model.HotCells, grid *seg.Grid) *occupancy {
	slotOff := make([]int32, len(hot.H))
	var n int32
	for id, h := range hot.H {
		slotOff[id] = n
		n += h
	}
	return &occupancy{
		d:       d,
		hot:     hot,
		grid:    grid,
		segs:    make([][]model.CellID, len(grid.Segs)),
		prefW:   make([][]int32, len(grid.Segs)),
		slotOff: slotOff,
		links:   make([]link, n),
	}
}

// slots returns the row slots of placed cell id, bottom row first.
func (o *occupancy) slots(id model.CellID) []link {
	s := o.slotOff[id]
	return o.links[s : s+o.hot.H[id]]
}

// reserve returns s with room for one more element, growing by at
// least eight slots at a time: append's doubling reallocates four
// times to reach the first eight elements, so small segment lists were
// re-copying on nearly every insert.
func reserve[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	ns := make([]T, len(s)+1, 2*cap(s)+8)
	copy(ns, s)
	return ns
}

// insert registers a placed cell in the segments of all rows it spans.
// The cell's X/Y must already be final (in both the design and the hot
// view). A cell outside any segment — an inconsistency between the
// committed plan and the grid — yields a typed *InsertError; the
// partially-registered rows are left in place (the stage runner rolls
// the whole stage back on error).
func (o *occupancy) insert(id model.CellID) error {
	h := o.hot
	x, y := int(h.X[id]), int(h.Y[id])
	for r := y; r < y+int(h.H[id]); r++ {
		sid := o.grid.AtID(r, x)
		if sid < 0 {
			c := &o.d.Cells[id]
			return &InsertError{Cell: id, Name: c.Name, X: x, Y: y, Row: r}
		}
		lst := reserve(o.segs[sid])
		i := sort.Search(len(lst)-1, func(k int) bool { return h.X[lst[k]] > int32(x) })
		copy(lst[i+1:], lst[i:])
		lst[i] = id
		o.segs[sid] = lst

		lk := link{left: -1, right: -1, sid: sid}
		if i > 0 {
			lk.left = lst[i-1]
			o.slots(lk.left)[r-int(h.Y[lk.left])].right = id
		}
		if i+1 < len(lst) {
			lk.right = lst[i+1]
			o.slots(lk.right)[r-int(h.Y[lk.right])].left = id
		}
		o.slots(id)[r-y] = lk

		// One shift-and-add pass keeps prefW a prefix sum of widths:
		// entries after the insertion point slide right one slot
		// (pw[i+1] becomes a copy of pw[i], the prefix up to the new
		// cell), then the new cell's width is added to the whole tail.
		pw := o.prefW[sid]
		if len(pw) == 0 {
			pw = append(pw, 0)
		}
		pw = reserve(pw)
		copy(pw[i+2:], pw[i+1:])
		pw[i+1] = pw[i]
		w := h.W[id]
		for k := i + 1; k < len(pw); k++ {
			pw[k] += w
		}
		o.prefW[sid] = pw
	}
	return nil
}

// occupiedWidth returns the summed width (in sites) of the parts of
// placed cells of segment sid that lie inside [lo, hi).
func (o *occupancy) occupiedWidth(sid int32, lo, hi int) int {
	lst := o.segs[sid]
	if len(lst) == 0 || hi <= lo {
		return 0
	}
	h := o.hot
	// First cell with right edge > lo.
	a := sort.Search(len(lst), func(k int) bool {
		id := lst[k]
		return int(h.X[id]+h.W[id]) > lo
	})
	// First cell with left edge >= hi.
	b := sort.Search(len(lst), func(k int) bool { return int(h.X[lst[k]]) >= hi })
	if a >= b {
		return 0
	}
	pw := o.prefW[sid]
	total := int(pw[b] - pw[a])
	// Trim boundary overhangs.
	ca := lst[a]
	if int(h.X[ca]) < lo {
		total -= lo - int(h.X[ca])
	}
	cb := lst[b-1]
	if r := int(h.X[cb] + h.W[cb]); r > hi {
		total -= r - hi
	}
	return total
}

// cellsIn returns the placed cells of segment sid (ordered by x).
func (o *occupancy) cellsIn(sid int32) []model.CellID { return o.segs[sid] }

// splitAt returns the index of the first cell in segment sid whose left
// edge is strictly greater than x: cells [0,idx) are "left of x".
func (o *occupancy) splitAt(sid int32, x int) int {
	lst := o.segs[sid]
	return sort.Search(len(lst), func(k int) bool { return int(o.hot.X[lst[k]]) > x })
}
