package mgl

import (
	"math/rand"
	"testing"

	"mclegal/internal/eval"
	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

func baseTech(nSites, nRows int) model.Tech {
	return model.Tech{SiteW: 10, RowH: 80, NumSites: nSites, NumRows: nRows}
}

func newDesign(nSites, nRows int) *model.Design {
	return &model.Design{
		Name: "test",
		Tech: baseTech(nSites, nRows),
		Types: []model.CellType{
			{Name: "S1", Width: 2, Height: 1},
			{Name: "D2", Width: 3, Height: 2},
			{Name: "T3", Width: 4, Height: 3},
			{Name: "W1", Width: 5, Height: 1},
		},
	}
}

func addCell(d *model.Design, ti model.CellTypeID, gx, gy int, f model.FenceID) model.CellID {
	d.Cells = append(d.Cells, model.Cell{
		Name: "c", Type: ti, Fence: f, GX: gx, GY: gy, X: gx, Y: gy,
	})
	return model.CellID(len(d.Cells) - 1)
}

func runMGL(t *testing.T, d *model.Design, opt Options) *Legalizer {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid: %v", err)
	}
	l, err := Legalize(d, opt)
	if err != nil {
		t.Fatalf("legalize: %v", err)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := eval.Audit(d, grid); len(v) > 0 {
		t.Fatalf("audit failed: %v (and %d more)", v[0], len(v)-1)
	}
	if l.Stats.Placed != d.MovableCount() {
		t.Fatalf("placed %d of %d cells", l.Stats.Placed, d.MovableCount())
	}
	return l
}

func TestPlaceAtGPWhenFree(t *testing.T) {
	d := newDesign(40, 6)
	addCell(d, 0, 10, 3, 0)
	addCell(d, 1, 20, 2, 0) // even row, double height: already legal
	runMGL(t, d, Options{Workers: 1})
	if d.Cells[0].X != 10 || d.Cells[0].Y != 3 {
		t.Errorf("free cell moved: (%d,%d)", d.Cells[0].X, d.Cells[0].Y)
	}
	if d.Cells[1].X != 20 || d.Cells[1].Y != 2 {
		t.Errorf("double cell moved: (%d,%d)", d.Cells[1].X, d.Cells[1].Y)
	}
}

func TestParityForcesRowChange(t *testing.T) {
	d := newDesign(40, 6)
	id := addCell(d, 1, 10, 3, 0) // double height on odd row: illegal parity
	runMGL(t, d, Options{Workers: 1})
	c := d.Cells[id]
	if c.Y%2 != 0 {
		t.Fatalf("even-height cell on odd row %d", c.Y)
	}
	if c.Y != 2 && c.Y != 4 {
		t.Errorf("expected adjacent even row, got %d", c.Y)
	}
	if c.X != 10 {
		t.Errorf("x should stay 10, got %d", c.X)
	}
}

func TestOverlapResolvedMinimally(t *testing.T) {
	d := newDesign(40, 3)
	a := addCell(d, 0, 10, 1, 0)
	b := addCell(d, 0, 10, 1, 0) // same GP: one must shift by exactly 2 sites
	runMGL(t, d, Options{Workers: 1})
	ca, cb := d.Cells[a], d.Cells[b]
	dist := geom.Abs(ca.X-10) + geom.Abs(ca.Y-1) + geom.Abs(cb.X-10) + geom.Abs(cb.Y-1)
	if dist != 2 {
		t.Errorf("total shift = %d sites, want 2 (a=%+v b=%+v)", dist, ca, cb)
	}
}

func TestInsertionSplitsNeighbors(t *testing.T) {
	// Two cells flank the GP of a third; inserting between them should
	// push both apart rather than displace the target far away.
	d := newDesign(60, 1)
	l := addCell(d, 0, 28, 0, 0) // width 2 at 28..30
	r := addCell(d, 0, 30, 0, 0) // width 2 at 30..32
	m := addCell(d, 0, 29, 0, 0) // wants 29..31
	runMGL(t, d, Options{Workers: 1})
	cm := d.Cells[m]
	if cm.Y != 0 {
		t.Fatalf("target changed rows: %d", cm.Y)
	}
	total := geom.Abs(d.Cells[l].X-28) + geom.Abs(d.Cells[r].X-30) + geom.Abs(cm.X-29)
	// Best achievable: insert at 29 pushing l to 27 and r to 31 => 1+1+0=2,
	// or place target at 26/32 => 3. MGL must find 2.
	if total != 2 {
		t.Errorf("total displacement = %d sites, want 2 (l=%d m=%d r=%d)",
			total, d.Cells[l].X, cm.X, d.Cells[r].X)
	}
}

func TestMultiRowPushAffectsAllRows(t *testing.T) {
	d := newDesign(40, 4)
	// A 2-high cell at x=10 on rows 0-1, and single-row cells right of
	// it in both rows.
	dbl := addCell(d, 1, 10, 0, 0) // 3 wide
	s0 := addCell(d, 0, 13, 0, 0)
	s1 := addCell(d, 0, 13, 1, 0)
	// Target 2-high cell whose GP overlaps dbl: must push or shift.
	tgt := addCell(d, 1, 9, 0, 0)
	runMGL(t, d, Options{Workers: 1})
	_ = s0
	_ = s1
	_ = dbl
	_ = tgt
	// Audit in runMGL already guarantees legality (incl. both rows of
	// the pushed 2-high cells); additionally check the chain kept order.
	if d.Cells[dbl].X < d.Cells[tgt].X && d.Cells[tgt].X < 9 {
		t.Errorf("unexpected arrangement")
	}
}

func TestFenceAssignmentRespected(t *testing.T) {
	d := newDesign(60, 6)
	d.Fences = []model.Fence{{Name: "F", Rects: []geom.Rect{geom.RectWH(20, 2, 10, 2)}}}
	in := addCell(d, 0, 5, 0, 1)   // assigned to fence but GP far outside
	out := addCell(d, 0, 22, 3, 0) // default cell with GP inside fence
	runMGL(t, d, Options{Workers: 1})
	ci, co := d.Cells[in], d.Cells[out]
	fr := geom.RectWH(20, 2, 10, 2)
	if !fr.Contains(geom.RectWH(ci.X, ci.Y, 2, 1)) {
		t.Errorf("fence cell at (%d,%d) outside fence", ci.X, ci.Y)
	}
	if fr.Overlaps(geom.RectWH(co.X, co.Y, 2, 1)) {
		t.Errorf("default cell at (%d,%d) inside fence", co.X, co.Y)
	}
}

func TestWindowGrowthOnDenseRegion(t *testing.T) {
	d := newDesign(100, 1)
	// Fill sites 0..40 solid with width-2 cells, then ask for one more
	// in the middle: it must travel beyond the initial window.
	for x := 0; x < 40; x += 2 {
		addCell(d, 0, x, 0, 0)
	}
	addCell(d, 0, 20, 0, 0)
	runMGL(t, d, Options{Workers: 1})
	// Optimal cost: either the target hops to x=40 (20 sites) or the
	// right half of the block is pushed right by 2 (10 cells * 2 = 20
	// sites). Both are optimal; anything worse is a regression.
	m := eval.Measure(d)
	if m.TotalDispSites != 20 {
		t.Errorf("total displacement = %v sites, want 20", m.TotalDispSites)
	}
}

func TestImpossibleDesignFails(t *testing.T) {
	d := newDesign(10, 1)
	// 6 width-2 cells in a 10-site row: 12 > 10 sites.
	for i := 0; i < 6; i++ {
		addCell(d, 0, 0, 0, 0)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1})
	if err := l.Run(); err == nil {
		t.Fatalf("over-full design legalized successfully")
	}
}

func TestEdgeSpacingHonored(t *testing.T) {
	d := newDesign(40, 1)
	d.Tech.EdgeSpacing = [][]int{{0, 0}, {0, 2}} // type-1 edges need 2 sites between each other
	d.Types[0].EdgeL, d.Types[0].EdgeR = 1, 1
	a := addCell(d, 0, 10, 0, 0)
	b := addCell(d, 0, 11, 0, 0) // wants to abut a
	runMGL(t, d, Options{Workers: 1})
	ca, cb := d.Cells[a], d.Cells[b]
	lo, hi := ca, cb
	if lo.X > hi.X {
		lo, hi = hi, lo
	}
	if gap := hi.X - (lo.X + 2); gap < 2 {
		t.Errorf("edge spacing violated: gap = %d sites", gap)
	}
}

// fakeRules implements Rules for steering tests.
type fakeRules struct {
	rowBad func(model.CellTypeID, int) bool
	xBad   func(model.CellTypeID, int, int) bool
	pen    func(model.CellTypeID, int, int) int64
}

func (f fakeRules) RowForbidden(ct model.CellTypeID, y int) bool {
	return f.rowBad != nil && f.rowBad(ct, y)
}
func (f fakeRules) XForbidden(ct model.CellTypeID, x, y int) bool {
	return f.xBad != nil && f.xBad(ct, x, y)
}
func (f fakeRules) IOPenalty(ct model.CellTypeID, x, y int) int64 {
	if f.pen == nil {
		return 0
	}
	return f.pen(ct, x, y)
}

func TestRulesRowForbidden(t *testing.T) {
	d := newDesign(40, 5)
	id := addCell(d, 0, 10, 2, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, Rules: fakeRules{
		rowBad: func(_ model.CellTypeID, y int) bool { return y == 2 },
	}})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Cells[id].Y == 2 {
		t.Errorf("cell placed on forbidden row")
	}
	if d.Cells[id].Y != 1 && d.Cells[id].Y != 3 {
		t.Errorf("cell should land on an adjacent row, got %d", d.Cells[id].Y)
	}
}

func TestRulesXForbiddenSlides(t *testing.T) {
	d := newDesign(40, 3)
	id := addCell(d, 0, 10, 1, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, Rules: fakeRules{
		xBad: func(_ model.CellTypeID, x, _ int) bool { return x >= 9 && x <= 11 },
	}})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c := d.Cells[id]
	if c.X >= 9 && c.X <= 11 {
		t.Errorf("cell left on forbidden x %d", c.X)
	}
	if c.X != 8 && c.X != 12 {
		t.Errorf("cell should slide to nearest clean site, got %d", c.X)
	}
}

func TestRulesIOPenaltySteers(t *testing.T) {
	d := newDesign(40, 1)
	id := addCell(d, 0, 10, 0, 0)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	l := New(d, grid, Options{Workers: 1, Rules: fakeRules{
		pen: func(_ model.CellTypeID, x, _ int) int64 {
			if x == 10 {
				return 1000
			}
			return 0
		},
	}})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	// Penalty applies to the whole insertion-point evaluation at its
	// optimum; moving off 10 costs 1*SiteW=10 < 1000, but the penalty
	// is only assessed at the chosen x. The cheapest clean choice is an
	// adjacent x... the insertion evaluator picks minimum curve cost
	// first, so the cell may still sit at 10 only if every insertion
	// point is penalized. With a single insertion point, the penalty
	// cannot re-rank, so just assert legality and placement.
	if d.Cells[id].Y != 0 {
		t.Errorf("row changed unexpectedly")
	}
}

func TestBlockageAvoided(t *testing.T) {
	d := newDesign(40, 3)
	d.Blockages = []geom.Rect{geom.RectWH(8, 1, 6, 1)}
	id := addCell(d, 0, 10, 1, 0) // GP inside blockage
	runMGL(t, d, Options{Workers: 1})
	c := d.Cells[id]
	if geom.RectWH(8, 1, 6, 1).Overlaps(geom.RectWH(c.X, c.Y, 2, 1)) {
		t.Errorf("cell overlaps blockage: (%d,%d)", c.X, c.Y)
	}
}

func randomDesign(rng *rand.Rand, nSites, nRows, nCells int, withFence bool) *model.Design {
	d := newDesign(nSites, nRows)
	fenceArea := 0
	var fence geom.Rect
	if withFence {
		fw, fh := 12+rng.Intn(8), 3+rng.Intn(3)
		fx, fy := rng.Intn(nSites-fw), rng.Intn(nRows-fh)
		fence = geom.RectWH(fx, fy, fw, fh)
		d.Fences = []model.Fence{{Name: "F", Rects: []geom.Rect{fence}}}
		fenceArea = fw * fh * 2 / 5
	}
	fenceUsed := 0
	for i := 0; i < nCells; i++ {
		ti := model.CellTypeID(rng.Intn(len(d.Types)))
		ct := d.Types[ti]
		gx := rng.Intn(nSites - ct.Width)
		gy := rng.Intn(nRows - ct.Height)
		f := model.FenceID(0)
		// Assign to the fence only if the cell fits and capacity allows.
		if withFence && rng.Intn(8) == 0 && ct.Height < fence.H() &&
			fenceUsed+ct.Width*ct.Height <= fenceArea {
			f = 1
			fenceUsed += ct.Width * ct.Height
		}
		addCell(d, ti, gx, gy, f)
	}
	return d
}

func TestRandomizedLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		nSites, nRows := 60+rng.Intn(60), 8+rng.Intn(8)
		// Keep utilization moderate so instances stay feasible.
		nCells := nSites * nRows / 12
		d := randomDesign(rng, nSites, nRows, nCells, trial%3 == 0)
		runMGL(t, d, Options{Workers: 1})
	}
}

func TestRandomizedLegalityWithSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		d := randomDesign(rng, 100, 10, 60, false)
		d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 1}}
		for i := range d.Types {
			d.Types[i].EdgeL = uint8(i % 2)
			d.Types[i].EdgeR = uint8((i + 1) % 2)
		}
		runMGL(t, d, Options{Workers: 1})
		// Verify spacing directly.
		for i := range d.Cells {
			for j := range d.Cells {
				if i == j {
					continue
				}
				a, b := &d.Cells[i], &d.Cells[j]
				ra := d.CellRect(model.CellID(i))
				rb := d.CellRect(model.CellID(j))
				if !ra.YIv().Overlaps(rb.YIv()) || ra.XLo >= rb.XLo {
					continue
				}
				need := d.Tech.Spacing(d.Types[a.Type].EdgeR, d.Types[b.Type].EdgeL)
				if rb.XLo-ra.XHi < need && rb.XLo >= ra.XHi {
					t.Fatalf("trial %d: spacing %d < %d between cells %d,%d",
						trial, rb.XLo-ra.XHi, need, i, j)
				}
			}
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 6; trial++ {
		d1 := randomDesign(rng, 120, 12, 110, trial%2 == 0)
		d2 := d1.Clone()
		d3 := d1.Clone()
		d4 := d1.Clone()
		runMGL(t, d1, Options{Workers: 1})
		runMGL(t, d2, Options{Workers: 4})
		runMGL(t, d3, Options{Workers: 4})
		for i := range d2.Cells {
			if d2.Cells[i].X != d3.Cells[i].X || d2.Cells[i].Y != d3.Cells[i].Y {
				t.Fatalf("trial %d: parallel runs disagree at cell %d", trial, i)
			}
			if d1.Cells[i].X != d2.Cells[i].X || d1.Cells[i].Y != d2.Cells[i].Y {
				t.Fatalf("trial %d: Workers 1 and 4 disagree at cell %d", trial, i)
			}
		}
		// BatchCap 1: every batch is one window, so at Workers >= 2
		// every batch is split into row tasks.
		var ref *model.Design
		for _, w := range []int{1, 2, 3, 4, 8} {
			d := d4.Clone()
			runMGL(t, d, Options{Workers: w, BatchCap: 1})
			if ref == nil {
				ref = d
				continue
			}
			for i := range d.Cells {
				if d.Cells[i].X != ref.Cells[i].X || d.Cells[i].Y != ref.Cells[i].Y {
					t.Fatalf("trial %d: BatchCap 1 at Workers %d disagrees with Workers 1 at cell %d", trial, w, i)
				}
			}
		}
	}
}

func TestParallelLegality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		d := randomDesign(rng, 150, 14, 160, trial%2 == 0)
		runMGL(t, d, Options{Workers: 4, BatchCap: 8})
	}
}

func TestOrderPolicies(t *testing.T) {
	for _, pol := range []OrderPolicy{TallestFirst, GPLeftToRight, WidestAreaFirst} {
		d := newDesign(60, 6)
		addCell(d, 0, 30, 2, 0)
		addCell(d, 2, 10, 1, 0)
		addCell(d, 1, 20, 2, 0)
		addCell(d, 3, 40, 5, 0)
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		l := New(d, grid, Options{Workers: 1, Order: pol})
		order := l.Order()
		if len(order) != 4 {
			t.Fatalf("order length %d", len(order))
		}
		switch pol {
		case TallestFirst:
			if order[0] != 1 { // the 3-high cell
				t.Errorf("TallestFirst order = %v", order)
			}
		case GPLeftToRight:
			if order[0] != 1 || order[3] != 3 {
				t.Errorf("GPLeftToRight order = %v", order)
			}
		case WidestAreaFirst:
			if order[0] != 1 { // area 12 is largest
				t.Errorf("WidestAreaFirst order = %v", order)
			}
		}
		if err := l.Run(); err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	d := newDesign(40, 4)
	addCell(d, 0, 5, 1, 0)
	addCell(d, 0, 7, 2, 0)
	l := runMGL(t, d, Options{Workers: 1})
	if l.Stats.Placed != 2 {
		t.Errorf("Stats.Placed = %d", l.Stats.Placed)
	}
}

func TestMeasureAfterMGL(t *testing.T) {
	d := newDesign(40, 3)
	addCell(d, 0, 10, 1, 0)
	addCell(d, 0, 10, 1, 0)
	runMGL(t, d, Options{Workers: 1})
	m := eval.Measure(d)
	// One cell stays, the other moves 2 sites = 20 DBU = 0.25 rows.
	if m.TotalDispDBU != 20 {
		t.Errorf("TotalDispDBU = %d, want 20", m.TotalDispDBU)
	}
	if m.MaxDisp != 0.25 {
		t.Errorf("MaxDisp = %v, want 0.25", m.MaxDisp)
	}
	if m.MovedCells != 1 {
		t.Errorf("MovedCells = %d", m.MovedCells)
	}
}
