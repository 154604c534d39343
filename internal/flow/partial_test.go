package flow

import (
	"strings"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/stage"
)

// When a stage fails, the partial Result must still surface the work
// done up to the failure — MGL stats and per-stage timings — so
// operators can see where the time went.
func TestPartialResultOnMGLFailure(t *testing.T) {
	d := &model.Design{
		Name: "partial",
		Tech: model.Tech{SiteW: 10, RowH: 80, NumSites: 30, NumRows: 4},
		Types: []model.CellType{
			{Name: "S1", Width: 2, Height: 1},
		},
		// A fence with room for exactly two width-2 cells.
		Fences: []model.Fence{{Name: "F", Rects: []geom.Rect{geom.RectWH(0, 0, 4, 1)}}},
	}
	add := func(gx, gy int, f model.FenceID) {
		d.Cells = append(d.Cells, model.Cell{
			Name: "c", Type: 0, Fence: f, GX: gx, GY: gy, X: gx, Y: gy,
		})
	}
	// Three cells assigned to the two-slot fence: the third cannot be
	// legalized anywhere.
	add(0, 0, 1)
	add(1, 0, 1)
	add(2, 0, 1)
	// Unconstrained cells that legalize fine.
	for i := 0; i < 6; i++ {
		add(10+3*i, 1+i%3, 0)
	}

	res, err := Run(d, Options{Workers: 1})
	if err == nil {
		t.Fatal("overfull fence legalized")
	}
	if !strings.Contains(err.Error(), "stage mgl") {
		t.Errorf("error not attributed to its stage: %v", err)
	}
	if res.MGLStats.Placed == 0 {
		t.Error("partial MGL stats discarded on failure")
	}
	if len(res.Timings) != 1 || res.Timings[0].Stage != stage.NameMGL || res.Timings[0].Duration <= 0 {
		t.Errorf("timings = %+v", res.Timings)
	}
	if res.Total <= 0 {
		t.Errorf("total time not recorded: %v", res.Total)
	}
}
