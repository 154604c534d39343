package model

import (
	"slices"
	"testing"
)

// RowSlots lists every row of every in-core movable cell, sorted by
// row, then left edge, then cell; fixed and out-of-core cells have none.
func TestRowSlots(t *testing.T) {
	d := testDesign()
	d.Cells = append(d.Cells,
		Cell{Name: "d", Type: 1, X: 5, Y: 6},              // FF2 at the INV's x, rows 6-7
		Cell{Name: "e", Type: 0, X: 0, Y: 6, Fixed: true}, // fixed
		Cell{Name: "f", Type: 0, X: 99, Y: 6},             // sticks out of the core
		Cell{Name: "g", Type: 1, X: 0, Y: 19},             // above the top row
	)
	want := []RowSlot{
		{Row: 3, X: 5, Cell: 0},
		{Row: 6, X: 5, Cell: 3}, {Row: 6, X: 12, Cell: 1},
		{Row: 7, X: 5, Cell: 3}, {Row: 7, X: 12, Cell: 1},
		{Row: 10, X: 20, Cell: 2}, {Row: 11, X: 20, Cell: 2}, {Row: 12, X: 20, Cell: 2},
	}
	got := d.RowSlots(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("RowSlots = %v, want %v", got, want)
	}
	if cap(got) != len(want) {
		t.Errorf("cap = %d, want exactly %d", cap(got), len(want))
	}
	buf := make([]RowSlot, 0, 64)
	if again := d.RowSlots(buf); !slices.Equal(again, want) || &again[0] != &buf[:1][0] {
		t.Errorf("RowSlots did not reuse a large enough buffer")
	}
}

// FirstMeeting holds on the lowest row in which two cells are
// neighbours, not on their lowest shared row.
func TestFirstMeeting(t *testing.T) {
	d := testDesign()
	d.Cells = []Cell{
		{Name: "a", Type: 1, X: 10, Y: 4}, // FF2, rows 4-5
		{Name: "b", Type: 1, X: 20, Y: 4}, // FF2, rows 4-5
		{Name: "c", Type: 0, X: 15, Y: 4}, // INV between them on row 4
	}
	s := d.RowSlots(nil)
	meets := map[[3]int]bool{}
	for p := 1; p < len(s); p++ {
		if s[p-1].Row == s[p].Row {
			meets[[3]int{s[p].Row, int(s[p-1].Cell), int(s[p].Cell)}] = d.FirstMeeting(s, p)
		}
	}
	want := map[[3]int]bool{{4, 0, 2}: true, {4, 2, 1}: true, {5, 0, 1}: true}
	if len(meets) != len(want) {
		t.Fatalf("neighbours = %v, want %v", meets, want)
	}
	for k, v := range want {
		if meets[k] != v {
			t.Errorf("row %d, cells %d,%d: FirstMeeting = %v, want %v", k[0], k[1], k[2], meets[k], v)
		}
	}

	// Moved off row 4, c no longer parts a and b: they meet on row 4
	// first, and row 5 is a repeat.
	d.Cells[2].Y = 8
	s = d.RowSlots(nil)
	for p := 1; p < len(s); p++ {
		if s[p-1].Row == s[p].Row && s[p-1].Cell == 0 && s[p].Cell == 1 {
			if got := d.FirstMeeting(s, p); got != (s[p].Row == 4) {
				t.Errorf("row %d: FirstMeeting = %v", s[p].Row, got)
			}
		}
	}
}
