package mgl

import (
	"math/rand"
	"testing"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// occFixture returns an empty 100x4 design and its grid. Tests add
// their cells first and then build the index with newOcc: the link
// slots are sized from the hot view, so the design must be final.
func occFixture(t *testing.T) (*model.Design, *seg.Grid) {
	t.Helper()
	d := newDesign(100, 4)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, grid
}

func newOcc(d *model.Design, grid *seg.Grid) *occupancy {
	return newOccupancy(d, model.NewHotCells(d), grid)
}

func TestOccupancyInsertOrder(t *testing.T) {
	d, grid := occFixture(t)
	c := addCell(d, 0, 50, 1, 0)
	a := addCell(d, 0, 10, 1, 0)
	b := addCell(d, 0, 30, 1, 0)
	occ := newOcc(d, grid)
	for _, id := range []model.CellID{c, a, b} {
		occ.insert(id)
	}
	s, _ := grid.At(1, 0)
	lst := occ.cellsIn(int32(s.ID))
	if len(lst) != 3 || lst[0] != a || lst[1] != b || lst[2] != c {
		t.Fatalf("occupancy not x-sorted: %v", lst)
	}
	if occ.splitAt(int32(s.ID), 30) != 2 { // cells with X <= 30: a and b
		t.Errorf("splitAt(30) = %d", occ.splitAt(int32(s.ID), 30))
	}
	if occ.splitAt(int32(s.ID), 9) != 0 || occ.splitAt(int32(s.ID), 99) != 3 {
		t.Errorf("splitAt boundaries wrong")
	}
}

func TestOccupancyMultiRow(t *testing.T) {
	d, grid := occFixture(t)
	id := addCell(d, 1, 20, 2, 0) // 3-wide, 2-high at rows 2,3
	occ := newOcc(d, grid)
	occ.insert(id)
	for r := 2; r <= 3; r++ {
		s, _ := grid.At(r, 20)
		if lst := occ.cellsIn(int32(s.ID)); len(lst) != 1 || lst[0] != id {
			t.Fatalf("row %d missing multi-row cell", r)
		}
	}
	s, _ := grid.At(1, 20)
	if len(occ.cellsIn(int32(s.ID))) != 0 {
		t.Errorf("row 1 should be empty")
	}
}

func TestOccupiedWidth(t *testing.T) {
	d, grid := occFixture(t)
	// Width-2 cells at [10,12), [20,22); width-5 at [30,35).
	addCell(d, 0, 10, 0, 0)
	addCell(d, 0, 20, 0, 0)
	addCell(d, 3, 30, 0, 0)
	occ := newOcc(d, grid)
	for id := range d.Cells {
		occ.insert(model.CellID(id))
	}
	s, _ := grid.At(0, 0)
	cases := []struct {
		lo, hi, want int
	}{
		{0, 100, 9},
		{10, 12, 2},
		{11, 12, 1}, // clipped left
		{10, 11, 1}, // clipped right
		{12, 20, 0}, // gap
		{0, 10, 0},  // before everything
		{31, 34, 3}, // inside the wide cell
		{21, 33, 4}, // 1 from cell2 + 3 from cell3
		{50, 40, 0}, // inverted interval
	}
	for _, c := range cases {
		if got := occ.occupiedWidth(int32(s.ID), c.lo, c.hi); got != c.want {
			t.Errorf("occupiedWidth(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestOccupiedWidthRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		d, grid := occFixture(t)
		// Random non-overlapping width-2 cells in row 0.
		x := 0
		var placed []int
		for {
			x += rng.Intn(4)
			if x+2 > 100 {
				break
			}
			addCell(d, 0, x, 0, 0)
			placed = append(placed, x)
			x += 2
		}
		occ := newOcc(d, grid)
		for id := range d.Cells {
			occ.insert(model.CellID(id))
		}
		s, _ := grid.At(0, 0)
		for q := 0; q < 30; q++ {
			lo := rng.Intn(100)
			hi := lo + rng.Intn(100-lo+1)
			want := 0
			for _, px := range placed {
				o := min(hi, px+2) - max(lo, px)
				if o > 0 {
					want += o
				}
			}
			if got := occ.occupiedWidth(int32(s.ID), lo, hi); got != want {
				t.Fatalf("trial %d: occupiedWidth(%d,%d) = %d, want %d", trial, lo, hi, got, want)
			}
		}
	}
}

// The push-chain code reads a cell's row neighbours and segment from
// its link slots instead of searching the segment lists, so after every
// batch of a run each placed cell's slots must name exactly its
// neighbours in the x-sorted lists and the list's segment, and the
// neighbours must keep their edge spacing apart. Designs mix heights
// 1–3, and some carry a fence or edge spacing.
func TestOccupancyLinksMatchLists(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		nSites, nRows := 60+rng.Intn(60), 8+rng.Intn(8)
		d := randomDesign(rng, nSites, nRows, nSites*nRows/12, trial%2 == 0)
		if trial%3 == 0 {
			d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 1}}
			for i := range d.Types {
				d.Types[i].EdgeL = uint8(i % 2)
				d.Types[i].EdgeR = uint8((i + 1) % 2)
			}
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		var l *Legalizer
		batches := 0
		l = New(d, grid, Options{Workers: 1, DebugAfterBatch: func([]model.CellID) bool {
			batches++
			checkLinks(t, l.occ, trial, batches)
			return !t.Failed()
		}})
		if err := l.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// checkLinks compares every slot of every registered cell with the
// segment lists: neighbours, segment, strict x-order, and one slot per
// spanned row. It also checks that consecutive cells keep their edge
// spacing apart, X[a]+W[a]+spacing <= X[b]: the pushed-cell walk of
// evaluateInsertion relies on it (docs/ALGORITHMS.md).
func checkLinks(t *testing.T, o *occupancy, trial, batch int) {
	t.Helper()
	h := o.hot
	tech, types := &o.d.Tech, o.d.Types
	rows := map[model.CellID]int{}
	for sid, lst := range o.segs {
		r := o.grid.Segs[sid].Row
		for i, id := range lst {
			if r < int(h.Y[id]) || r >= int(h.Y[id]+h.H[id]) {
				t.Errorf("trial %d batch %d: cell %d (rows %d+%d) listed in row %d",
					trial, batch, id, h.Y[id], h.H[id], r)
				return
			}
			want := link{left: -1, right: -1, sid: int32(sid)}
			if i > 0 {
				a := lst[i-1]
				want.left = a
				if h.X[a] >= h.X[id] {
					t.Errorf("trial %d batch %d: segment %d not strictly x-sorted at %d",
						trial, batch, sid, i)
				}
				sp := tech.Spacing(types[h.Type[a]].EdgeR, types[h.Type[id]].EdgeL)
				if int(h.X[a]+h.W[a])+sp > int(h.X[id]) {
					t.Errorf("trial %d batch %d: cells %d at %d (width %d) and %d at %d in segment %d are closer than their spacing %d",
						trial, batch, a, h.X[a], h.W[a], id, h.X[id], sid, sp)
				}
			}
			if i+1 < len(lst) {
				want.right = lst[i+1]
			}
			if got := o.slots(id)[r-int(h.Y[id])]; got != want {
				t.Errorf("trial %d batch %d: cell %d row %d link %+v, lists say %+v",
					trial, batch, id, r, got, want)
			}
			rows[id]++
		}
	}
	for id, n := range rows {
		if n != int(h.H[id]) {
			t.Errorf("trial %d batch %d: cell %d listed in %d rows, spans %d",
				trial, batch, id, n, h.H[id])
		}
	}
}
