package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// railTech: rows 80 DBU tall, horizontal M2 rails (half-width 4) on
// every 2nd row boundary, vertical M3 stripes every 20 sites (width 12
// DBU) starting at site 10.
func railTech() model.Tech {
	return model.Tech{
		SiteW: 10, RowH: 80, NumSites: 100, NumRows: 16,
		HRailLayer: model.LayerM2, HRailHalfW: 4, HRailPeriod: 2,
		VRailLayer: model.LayerM3, VRailPitch: 20, VRailW: 12, VRailOffset: 10,
	}
}

func railDesign() *model.Design {
	return &model.Design{
		Name: "r",
		Tech: railTech(),
		Types: []model.CellType{
			{
				Name: "CLEAN", Width: 4, Height: 1,
				Pins: []model.PinShape{
					// Mid-cell M1 pin, nowhere near rails.
					{Name: "A", Layer: model.LayerM1, Box: geom.RectWH(12, 30, 8, 10)},
				},
			},
			{
				Name: "LOWPIN", Width: 4, Height: 1,
				Pins: []model.PinShape{
					// M2 pin hugging the cell bottom: shorts with a
					// horizontal M2 rail when the bottom row sits on a
					// rail boundary (even rows).
					{Name: "B", Layer: model.LayerM2, Box: geom.RectWH(12, 0, 8, 6)},
				},
			},
			{
				Name: "M1LOW", Width: 4, Height: 1,
				Pins: []model.PinShape{
					// M1 pin at the bottom: *access* problem under the
					// M2 rail (Figure 1 left).
					{Name: "C", Layer: model.LayerM1, Box: geom.RectWH(12, 0, 8, 6)},
				},
			},
			{
				Name: "M2WIDE", Width: 4, Height: 1,
				Pins: []model.PinShape{
					// M2 pin in the middle of the cell: access problem
					// under M3 vertical stripes, x-dependent.
					{Name: "D", Layer: model.LayerM2, Box: geom.RectWH(0, 30, 40, 10)},
				},
			},
		},
	}
}

func TestHitsHRail(t *testing.T) {
	c := NewChecker(railDesign())
	// Rails at y = 0, 160, 320, ... covering [-4, 4), [156, 164)...
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{0, 6, true},     // bottom pin on rail boundary
		{10, 100, false}, // between rails
		{150, 170, true}, // crosses rail at 160
		{163, 170, true}, // clips rail tail
		{164, 170, false},
		{80, 90, false}, // odd row boundary has no rail
		{5, 5, false},   // empty interval
	}
	for _, tc := range cases {
		if got := c.hitsHRail(tc.lo, tc.hi); got != tc.want {
			t.Errorf("hitsHRail(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestHitsVRail(t *testing.T) {
	c := NewChecker(railDesign())
	// Stripes at x = 100, 300, 500, ... each 12 DBU wide.
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{100, 110, true},
		{90, 101, true},
		{111, 120, true},
		{112, 120, false},
		{0, 99, false}, // before the first stripe
		{113, 299, false},
		{250, 700, true},
	}
	for _, tc := range cases {
		if got := c.hitsVRail(tc.lo, tc.hi); got != tc.want {
			t.Errorf("hitsVRail(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// Figure 1 reproduction: the taxonomy of pin short vs pin access.
func TestFigure1PinViolationTaxonomy(t *testing.T) {
	d := railDesign()
	c := NewChecker(d)
	// M2 pin over M2 rail: SHORT (Figure 1 right).
	st := c.CheckPin(1, 0, 0, 0) // LOWPIN at row 0 (rail boundary)
	if !st.Short || st.Access {
		t.Errorf("M2 pin on M2 rail: %+v, want short only", st)
	}
	// M1 pin under M2 rail: ACCESS (Figure 1 left).
	st = c.CheckPin(2, 0, 0, 0)
	if st.Short || !st.Access {
		t.Errorf("M1 pin under M2 rail: %+v, want access only", st)
	}
	// Same cells on an odd row: clean.
	if st := c.CheckPin(1, 0, 0, 1); st.Short || st.Access {
		t.Errorf("LOWPIN on odd row should be clean: %+v", st)
	}
	// M2 pin crossing a vertical M3 stripe: ACCESS, x-dependent.
	st = c.CheckPin(3, 0, 8, 1) // cell sites 8..12, pin spans 80..120 DBU: hits stripe at 100
	if !st.Access {
		t.Errorf("M2 pin under M3 stripe: %+v, want access", st)
	}
	if st := c.CheckPin(3, 0, 12, 1); st.Access {
		t.Errorf("M2WIDE at x=12 spans 120..160, stripe at 100..112 missed? %+v", st)
	}
}

func TestIOPinViolations(t *testing.T) {
	d := railDesign()
	d.IOPins = []model.IOPin{
		{Name: "io2", Layer: model.LayerM2, Box: geom.RectWH(120, 110, 20, 20)},
	}
	c := NewChecker(d)
	// CLEAN's M1 pin at cell (11,1): abs box [122,130)x[110,120):
	// overlaps the M2 IO pin one layer up -> access.
	st := c.CheckPin(0, 0, 11, 1)
	if st.Short || !st.Access {
		t.Errorf("M1 pin under M2 IO pin: %+v", st)
	}
	// A LOWPIN M2 pin overlapping the same IO pin would be a short;
	// place it so its pin box [132,150)x[80,86) misses it.
	st = c.CheckPin(1, 0, 12, 1)
	if st.Short {
		t.Errorf("no overlap expected: %+v", st)
	}
}

func TestCountViolations(t *testing.T) {
	d := railDesign()
	d.Tech.EdgeSpacing = [][]int{{0, 0}, {0, 2}}
	d.Types[0].EdgeL, d.Types[0].EdgeR = 1, 1
	// Two CLEAN cells abutting (need 2 sites): edge violation.
	d.Cells = append(d.Cells,
		model.Cell{Name: "a", Type: 0, X: 20, Y: 3, GX: 20, GY: 3},
		model.Cell{Name: "b", Type: 0, X: 24, Y: 3, GX: 24, GY: 3},
		// LOWPIN on an even row: pin short.
		model.Cell{Name: "c", Type: 1, X: 40, Y: 4, GX: 40, GY: 4},
		// M1LOW on an even row: pin access.
		model.Cell{Name: "d", Type: 2, X: 50, Y: 4, GX: 50, GY: 4},
		// LOWPIN on an odd row: clean.
		model.Cell{Name: "e", Type: 1, X: 60, Y: 5, GX: 60, GY: 5},
		// CLEAN above the core rows: no row neighbours, so no edge
		// violation (and no row index past the core).
		model.Cell{Name: "f", Type: 0, X: 28, Y: d.Tech.NumRows + 3, GX: 28, GY: 3},
	)
	v := NewChecker(d).Count()
	if v.PinShort != 1 || v.PinAccess != 1 || v.EdgeSpacing != 1 {
		t.Errorf("violations = %+v, want 1/1/1", v)
	}
	if v.Pin() != 2 {
		t.Errorf("Pin() = %d", v.Pin())
	}
}

func TestRulesRowForbidden(t *testing.T) {
	d := railDesign()
	r := NewRules(NewChecker(d))
	// LOWPIN forbidden on even rows (rail boundaries), fine on odd.
	if !r.RowForbidden(1, 0) || !r.RowForbidden(1, 6) {
		t.Errorf("LOWPIN should be forbidden on even rows")
	}
	if r.RowForbidden(1, 3) || r.RowForbidden(1, 7) {
		t.Errorf("LOWPIN should be allowed on odd rows")
	}
	// CLEAN allowed everywhere.
	if r.RowForbidden(0, 0) || r.RowForbidden(0, 1) {
		t.Errorf("CLEAN forbidden somewhere")
	}
	// Rows of one rail phase share an answer.
	if !r.RowForbidden(1, 2) {
		t.Errorf("LOWPIN allowed on row 2, the phase of row 0")
	}
}

// A rail period longer than the core leaves one rail on the core's
// bottom edge: only row 0 is forbidden.
func TestRulesRailPeriodPastCore(t *testing.T) {
	d := railDesign()
	d.Tech.HRailPeriod = d.Tech.NumRows + 4
	r := NewRules(NewChecker(d))
	for y := 0; y < d.Tech.NumRows; y++ {
		if got := r.RowForbidden(1, y); got != (y == 0) {
			t.Errorf("LOWPIN on row %d: forbidden = %v", y, got)
		}
	}
}

func TestRulesXForbidden(t *testing.T) {
	d := railDesign()
	r := NewRules(NewChecker(d))
	// M2WIDE pin spans the full 40-DBU cell: forbidden when any stripe
	// intersects [x*10, x*10+40).
	if !r.XForbidden(3, 8, 0) { // 80..120 hits stripe 100..112
		t.Errorf("x=8 should be forbidden")
	}
	if r.XForbidden(3, 12, 0) { // 120..160 clean
		t.Errorf("x=12 should be clean")
	}
	if r.XForbidden(0, 8, 0) {
		t.Errorf("CLEAN has no M2/M3 pins near stripes; M1 pin never x-forbidden")
	}
}

func TestRulesIOPenalty(t *testing.T) {
	d := railDesign()
	d.IOPins = []model.IOPin{{Name: "io", Layer: model.LayerM2, Box: geom.RectWH(120, 110, 20, 20)}}
	r := NewRules(NewChecker(d))
	if p := r.IOPenalty(0, 11, 1); p != r.IOPenaltyDBU {
		t.Errorf("penalty = %d, want %d", p, r.IOPenaltyDBU)
	}
	if p := r.IOPenalty(0, 40, 1); p != 0 {
		t.Errorf("penalty far away = %d", p)
	}
}

func TestRangeProvider(t *testing.T) {
	d := railDesign()
	// One M2WIDE cell placed clean at x=12 row 1.
	d.Cells = append(d.Cells, model.Cell{Name: "a", Type: 3, X: 12, Y: 1, GX: 12, GY: 1})
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRules(NewChecker(d))
	lo, hi, ok := r.RangeProvider(grid)(0)
	if !ok {
		t.Fatal("provider declined")
	}
	// Clean run around 12: stripes at 100..112 and 300..312 DBU; pin
	// spans [x*10, x*10+40): forbidden when x*10 < 112 && x*10+40 > 100
	// => x in [7,11]; next stripe forbids x in [27,31]. So the run
	// around 12 is [12, 26].
	if lo != 12 || hi != 26 {
		t.Errorf("range = [%d,%d], want [12,26]", lo, hi)
	}
	// A cell already on a forbidden x gets no restriction.
	d.Cells[0].X = 9
	if _, _, ok := r.RangeProvider(grid)(0); ok {
		t.Errorf("provider should decline on a violating position")
	}
}

// Two 2-row cells that are neighbours only on their upper row, a
// 1-wide cell sitting between them on the lower one, are one
// violating pair when they stand 1 site apart under a 2-site rule.
func TestCountPairOnUpperSharedRow(t *testing.T) {
	d := &model.Design{
		Name: "upper",
		Tech: model.Tech{
			SiteW: 10, RowH: 80, NumSites: 40, NumRows: 4,
			EdgeSpacing: [][]int{{0, 0}, {0, 2}},
		},
		Types: []model.CellType{
			{Name: "TALL", Width: 4, Height: 2, EdgeL: 1, EdgeR: 1},
			{Name: "THIN", Width: 1, Height: 1},
		},
		Cells: []model.Cell{
			{Name: "a", Type: 0, X: 10, Y: 0, GX: 10, GY: 0},
			{Name: "b", Type: 0, X: 15, Y: 0, GX: 15, GY: 0},
			{Name: "c", Type: 1, X: 14, Y: 0, GX: 14, GY: 0},
		},
	}
	if v := NewChecker(d).Count(); v.EdgeSpacing != 1 {
		t.Errorf("edge violations = %d, want 1", v.EdgeSpacing)
	}
}

// randomPlacement scatters a few cells of random multi-row types over a
// small core and a little past it, overlaps and fixed cells included,
// under a random edge-spacing table.
func randomPlacement(rng *rand.Rand) *model.Design {
	const edges = 3
	d := &model.Design{Name: "q", Tech: model.Tech{SiteW: 10, RowH: 80, NumSites: 20, NumRows: 6}}
	d.Tech.EdgeSpacing = make([][]int, edges)
	for i := range d.Tech.EdgeSpacing {
		d.Tech.EdgeSpacing[i] = make([]int, edges)
		for j := range d.Tech.EdgeSpacing[i] {
			d.Tech.EdgeSpacing[i][j] = rng.Intn(4)
		}
	}
	for i := 0; i < 4; i++ {
		d.Types = append(d.Types, model.CellType{
			Name: "T", Width: 1 + rng.Intn(4), Height: 1 + rng.Intn(3),
			EdgeL: uint8(rng.Intn(edges)), EdgeR: uint8(rng.Intn(edges)),
		})
	}
	for n := 2 + rng.Intn(14); len(d.Cells) < n; {
		x, y := rng.Intn(23)-2, rng.Intn(8)-1
		d.Cells = append(d.Cells, model.Cell{
			Name: "c", Type: model.CellTypeID(rng.Intn(len(d.Types))),
			X: x, Y: y, GX: x, GY: y, Fixed: rng.Intn(8) == 0,
		})
	}
	return d
}

// pairwiseEdgeViolations counts, pair by pair, the movable in-core
// cells a before b (by left edge, then index) that share a row in which
// no such cell sorts between them and stand closer than their spacing
// rule asks.
func pairwiseEdgeViolations(d *model.Design) int {
	core := d.Tech.CoreRect()
	in := func(i int) bool { return !d.Cells[i].Fixed && core.Contains(d.CellRect(model.CellID(i))) }
	before := func(i, j int) bool {
		xi, xj := d.Cells[i].X, d.Cells[j].X
		return xi < xj || xi == xj && i < j
	}
	n := 0
	for a := range d.Cells {
		for b := range d.Cells {
			if !in(a) || !in(b) || !before(a, b) {
				continue
			}
			ra, rb := d.CellRect(model.CellID(a)), d.CellRect(model.CellID(b))
			need := d.Tech.Spacing(d.Type(model.CellID(a)).EdgeR, d.Type(model.CellID(b)).EdgeL)
			if need == 0 || rb.XLo-ra.XHi >= need {
				continue
			}
			for y := max(ra.YLo, rb.YLo); y < min(ra.YHi, rb.YHi); y++ {
				between := false
				for c := range d.Cells {
					rc := d.CellRect(model.CellID(c))
					if in(c) && rc.YLo <= y && y < rc.YHi && before(a, c) && before(c, b) {
						between = true
					}
				}
				if !between {
					n++
					break
				}
			}
		}
	}
	return n
}

// Property: on random placements, legal or not, Count's edge-spacing
// total equals the pair-by-pair recount.
func TestQuickCountMatchesPairwise(t *testing.T) {
	f := func(seed int64) bool {
		d := randomPlacement(rand.New(rand.NewSource(seed)))
		return NewChecker(d).Count().EdgeSpacing == pairwiseEdgeViolations(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
