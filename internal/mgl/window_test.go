package mgl

import (
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

func windowFixture(t *testing.T) *Legalizer {
	t.Helper()
	d := newDesign(100, 20)
	addCell(d, 0, 50, 10, 0) // width 2, height 1 at GP (50,10)
	addCell(d, 2, 10, 4, 0)  // width 4, height 3
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return New(d, grid, Options{Workers: 1})
}

func TestWindowForGrowsAndClamps(t *testing.T) {
	l := windowFixture(t)
	w0 := l.windowFor(0, 0)
	// Default half extents: hw = 2*2+8 = 12, hh = 1+2 = 3.
	want := geom.Rect{XLo: 38, YLo: 7, XHi: 64, YHi: 14}
	if w0 != want {
		t.Errorf("initial window = %v, want %v", w0, want)
	}
	w1 := l.windowFor(0, 1)
	if w1.W() <= w0.W() || w1.H() <= w0.H() {
		t.Errorf("window did not grow: %v -> %v", w0, w1)
	}
	// Eventually clamps to the full core.
	core := l.d.Tech.CoreRect()
	for a := 0; a < 12; a++ {
		if l.windowFor(0, a) == core {
			return
		}
	}
	t.Errorf("window never reached the core")
}

func TestCoverageBound(t *testing.T) {
	l := windowFixture(t)
	win := l.windowFor(0, 0) // [38,64)x[7,14), GP (50,10), w=2 h=1
	b := l.coverageBound(0, win)
	// Distances to edges: left (50-38)*10=120 DBU; right (64-2-50)*10=120;
	// down (10-7)*80=240; up (14-1-10)*80=240. Min = 120.
	if b != 120 {
		t.Errorf("coverageBound = %d, want 120", b)
	}
	// A full-core window has no outside: bound is huge.
	if b := l.coverageBound(0, l.d.Tech.CoreRect()); b < 1<<61 {
		t.Errorf("core window bound = %d", b)
	}
}

func TestQualityGrowthFindsFarCheaperRow(t *testing.T) {
	// The GP row region is packed for many sites around the target;
	// a free row 5 rows away is cheaper than a long x-trek, but lies
	// outside the initial +-2-row window for a 1-high cell... within
	// the x window everything is full, so quality growth must look
	// farther instead of settling for a big x displacement.
	d := newDesign(200, 20)
	// Fill rows 8..12 solid on sites 0..120 (target GP inside).
	for y := 8; y <= 12; y++ {
		for x := 0; x < 120; x += 2 {
			addCell(d, 0, x, y, 0)
		}
	}
	tgt := addCell(d, 0, 30, 10, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, QualityGrowths: 4})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c := d.Cells[tgt]
	// Cheapest escape: row 7 or 13 at x=30 costs 3 rows * 80 = 240 DBU
	// ... but rows 7/13 are free and inside the first window. Rows 8-12
	// being solid up to x=120, staying in row 10 would cost
	// (120-30)*10=900 DBU or push half the block. The legalizer must
	// not pay more than a few rows of displacement.
	disp := d.DispDBU(tgt)
	if disp > 4*80 {
		t.Errorf("target displaced %d DBU (placed at %d,%d), expected a nearby row",
			disp, c.X, c.Y)
	}
}

func TestQualityGrowthDisabled(t *testing.T) {
	d := newDesign(60, 6)
	addCell(d, 0, 30, 3, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, QualityGrowths: -1})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Cells[0].X != 30 || d.Cells[0].Y != 3 {
		t.Errorf("free cell moved with quality growth disabled")
	}
}

func TestInsertionRepsEnumeration(t *testing.T) {
	d := newDesign(60, 4)
	a := addCell(d, 0, 10, 1, 0)
	b := addCell(d, 0, 30, 1, 0)
	c := addCell(d, 0, 20, 2, 0) // registered below, for the 2-row case
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1})
	l.occ.insert(a)
	l.occ.insert(b)
	win := geom.Rect{XLo: 5, YLo: 0, XHi: 50, YHi: 3}
	sc := new(scratch)
	reps := l.insertionReps(sc, model.DefaultFence, 1, 1, win)
	// Expected: window start 5, cell edges 10 and 30. The segment start
	// (0) is left of the window.
	want := []int{5, 10, 30}
	if len(reps) != len(want) {
		t.Fatalf("reps = %v, want %v", reps, want)
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Fatalf("reps = %v, want %v", reps, want)
		}
	}
	// Multi-row span gathers edges from every row.
	l.occ.insert(c)
	reps = l.insertionReps(sc, model.DefaultFence, 1, 2, win)
	want = []int{5, 10, 20, 30}
	if len(reps) != len(want) {
		t.Fatalf("2-row reps = %v, want %v", reps, want)
	}
}
