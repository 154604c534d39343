package model

import (
	"cmp"
	"slices"
)

// RowSlot is one row a movable cell occupies: the row, the cell's left
// edge (in sites) and the cell.
type RowSlot struct {
	Row, X int
	Cell   CellID
}

func compareSlots(a, b RowSlot) int {
	if a.Row != b.Row {
		return cmp.Compare(a.Row, b.Row)
	}
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	return cmp.Compare(a.Cell, b.Cell)
}

// RowSlots lists a slot for every row of every movable cell inside the
// core, in (row, left edge, cell) order: the cells of each row lie
// consecutive, left to right, so neighbours in a row are consecutive
// slots. The result reuses buf's storage when it is large enough.
func (d *Design) RowSlots(buf []RowSlot) []RowSlot {
	core := d.Tech.CoreRect()
	n := 0
	for i := range d.Cells {
		if r := d.CellRect(CellID(i)); !d.Cells[i].Fixed && core.Contains(r) {
			n += r.H()
		}
	}
	if cap(buf) < n {
		buf = make([]RowSlot, 0, n)
	}
	s := buf[:0]
	for i := range d.Cells {
		r := d.CellRect(CellID(i))
		if d.Cells[i].Fixed || !core.Contains(r) {
			continue
		}
		for y := r.YLo; y < r.YHi; y++ {
			s = append(s, RowSlot{Row: y, X: r.XLo, Cell: CellID(i)})
		}
	}
	slices.SortFunc(s, compareSlots)
	return s
}

// FirstMeeting reports whether the row of s[p-1] and s[p], consecutive
// slots of RowSlots in one row, is the lowest row in which their two
// cells are neighbours, so that a walk over consecutive slots meets
// every pair of neighbours once, multi-row pairs included.
func (d *Design) FirstMeeting(s []RowSlot, p int) bool {
	a, b := s[p-1], s[p]
	// Both cells occupy every row from the higher of their bottom rows
	// up to this one, and a sorts before b in each of them.
	for y := max(d.Cells[a.Cell].Y, d.Cells[b.Cell].Y); y < b.Row; y++ {
		q, _ := slices.BinarySearchFunc(s, RowSlot{Row: y, X: a.X, Cell: a.Cell}, compareSlots)
		if s[q+1].Cell == b.Cell {
			return false
		}
	}
	return true
}
