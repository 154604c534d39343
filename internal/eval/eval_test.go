package eval

import (
	"math"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

func design() *model.Design {
	return &model.Design{
		Name: "e",
		Tech: model.Tech{SiteW: 10, RowH: 80, NumSites: 60, NumRows: 8},
		Types: []model.CellType{
			{Name: "S", Width: 2, Height: 1},
			{Name: "D", Width: 3, Height: 2},
		},
	}
}

func add(d *model.Design, ti model.CellTypeID, gx, gy, x, y int) model.CellID {
	d.Cells = append(d.Cells, model.Cell{Name: "c", Type: ti, GX: gx, GY: gy, X: x, Y: y})
	return model.CellID(len(d.Cells) - 1)
}

func grid(t *testing.T, d *model.Design) *seg.Grid {
	t.Helper()
	g, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAuditClean(t *testing.T) {
	d := design()
	add(d, 0, 5, 1, 5, 1)
	add(d, 1, 10, 2, 10, 2)
	if v := Audit(d, grid(t, d)); len(v) != 0 {
		t.Fatalf("clean design flagged: %v", v)
	}
}

func TestAuditOverlap(t *testing.T) {
	d := design()
	add(d, 0, 5, 1, 5, 1)
	add(d, 0, 6, 1, 6, 1) // overlaps [5,7)
	v := Audit(d, grid(t, d))
	if len(v) != 1 || v[0].Kind != "overlap" {
		t.Fatalf("want 1 overlap, got %v", v)
	}
}

func TestAuditOverlapReportedOnce(t *testing.T) {
	d := design()
	add(d, 1, 5, 2, 5, 2) // rows 2,3
	add(d, 1, 6, 2, 6, 2) // overlaps in both rows: one report
	v := Audit(d, grid(t, d))
	n := 0
	for _, x := range v {
		if x.Kind == "overlap" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("overlap pair reported %d times", n)
	}
}

func TestAuditParity(t *testing.T) {
	d := design()
	add(d, 1, 5, 3, 5, 3) // double height on odd row
	v := Audit(d, grid(t, d))
	if len(v) != 1 || v[0].Kind != "parity" {
		t.Fatalf("want parity violation, got %v", v)
	}
}

func TestAuditOutOfCore(t *testing.T) {
	d := design()
	add(d, 0, 59, 1, 59, 1) // width 2 at 59: sticks out of 60 sites
	v := Audit(d, grid(t, d))
	if len(v) != 1 || v[0].Kind != "out-of-core" {
		t.Fatalf("want out-of-core, got %v", v)
	}
}

func TestAuditFence(t *testing.T) {
	d := design()
	d.Fences = []model.Fence{{Name: "f", Rects: []geom.Rect{geom.RectWH(20, 0, 10, 4)}}}
	id := add(d, 0, 5, 1, 5, 1)
	d.Cells[id].Fence = 1 // assigned to the fence but placed outside
	v := Audit(d, grid(t, d))
	if len(v) != 1 || v[0].Kind != "fence" {
		t.Fatalf("want fence violation, got %v", v)
	}
	// Default cell inside the fence is also flagged.
	d2 := design()
	d2.Fences = d.Fences
	add(d2, 0, 22, 1, 22, 1)
	v = Audit(d2, grid(t, d2))
	if len(v) != 1 || v[0].Kind != "fence" {
		t.Fatalf("default-in-fence not flagged: %v", v)
	}
}

func TestAuditSkipsFixed(t *testing.T) {
	d := design()
	id := add(d, 0, 100, 50, 100, 50) // far outside, but fixed
	d.Cells[id].Fixed = true
	if v := Audit(d, grid(t, d)); len(v) != 0 {
		t.Fatalf("fixed cell flagged: %v", v)
	}
}

func TestMeasureEq2(t *testing.T) {
	d := design()
	// Two single-height cells displaced 0 and 2 rows; one double
	// displaced 1 row. S_am = ((0+2)/2 + 1/1) / 2 = 1.0.
	add(d, 0, 5, 1, 5, 1)
	add(d, 0, 5, 1, 5, 3)
	add(d, 1, 10, 2, 10, 3)
	m := Measure(d)
	if m.AvgDisp != 1.0 {
		t.Errorf("AvgDisp = %v, want 1.0", m.AvgDisp)
	}
	if m.MaxDisp != 2.0 {
		t.Errorf("MaxDisp = %v, want 2.0", m.MaxDisp)
	}
	if m.MovedCells != 2 {
		t.Errorf("MovedCells = %v", m.MovedCells)
	}
	// 2 rows + 1 row = 3 rows = 240 DBU = 24 sites.
	if m.TotalDispSites != 24 {
		t.Errorf("TotalDispSites = %v", m.TotalDispSites)
	}
}

func TestMeasureMixedUnits(t *testing.T) {
	d := design()
	add(d, 0, 5, 1, 9, 1) // 4 sites = 40 DBU = 0.5 rows
	m := Measure(d)
	if m.AvgDisp != 0.5 || m.MaxDisp != 0.5 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestHPWL(t *testing.T) {
	d := design()
	a := add(d, 0, 0, 0, 2, 1)
	b := add(d, 0, 0, 0, 10, 3)
	d.Nets = []model.Net{
		{Name: "n", Pins: []model.NetPin{{Cell: a, DX: 5, DY: 5}, {Cell: b, DX: 0, DY: 0}}},
		{Name: "single", Pins: []model.NetPin{{Cell: a}}}, // ignored
	}
	// a pin: (25, 85); b pin: (100, 240). HPWL = 75 + 155 = 230.
	if got := HPWL(d); got != 230 {
		t.Errorf("HPWL = %d, want 230", got)
	}
}

func TestScore(t *testing.T) {
	in := ScoreInput{
		Metrics:    Metrics{AvgDisp: 1.0, MaxDisp: 100},
		HPWLBefore: 1000, HPWLAfter: 1100,
		PinViolations: 5, EdgeViolations: 5, Cells: 100,
	}
	// (1 + 0.1 + 0.1) * (1 + 1) * 1 = 2.4
	if got := Score(in); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("Score = %v, want 2.4", got)
	}
	// HPWL improvement is not rewarded below zero.
	in.HPWLAfter = 900
	if got := Score(in); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("Score with HPWL gain = %v, want 2.2", got)
	}
	// Degenerate inputs do not divide by zero.
	if got := Score(ScoreInput{}); got != 0 {
		t.Errorf("zero score = %v", got)
	}
}

// Two double-row cells overlapping on both rows, with a single-row cell
// sorting between them on the lower row, are neighbours on the upper
// row only: the pair is still reported, once.
func TestAuditOverlapOnUpperSharedRow(t *testing.T) {
	d := design()
	a := add(d, 1, 10, 2, 10, 2) // rows 2,3, sites [10,13)
	b := add(d, 1, 11, 2, 11, 2) // rows 2,3, sites [11,14)
	c := add(d, 0, 10, 2, 10, 2) // row 2, sites [10,12): after a, before b
	pairs := map[[2]model.CellID]int{}
	for _, v := range Audit(d, grid(t, d)) {
		if v.Kind == "overlap" {
			pairs[[2]model.CellID{v.Cell, v.Other}]++
		}
	}
	want := map[[2]model.CellID]int{{a, c}: 1, {c, b}: 1, {a, b}: 1}
	if len(pairs) != len(want) {
		t.Fatalf("overlap pairs = %v, want %v", pairs, want)
	}
	for p, n := range want {
		if pairs[p] != n {
			t.Errorf("pair %v reported %d times, want %d", p, pairs[p], n)
		}
	}
}
