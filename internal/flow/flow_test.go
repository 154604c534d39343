package flow

import (
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/seg"
)

func TestFullPipeline(t *testing.T) {
	d := bmark.Generate(bmark.Params{
		Name: "flow", Seed: 4, Counts: [4]int{500, 50, 12, 6},
		Density: 0.65, NumFences: 1, FenceFrac: 0.5, NetFrac: 0.5, IOPins: 8,
		Routability: true,
	})
	res, err := Run(d, Options{Routability: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := eval.Audit(d, grid); len(v) > 0 {
		t.Fatalf("illegal result: %v", v[0])
	}
	if res.Metrics.AvgDisp <= 0 || res.Score <= 0 {
		t.Errorf("degenerate metrics: %+v", res.Metrics)
	}
	if res.HPWLBefore <= 0 || res.HPWLAfter <= 0 {
		t.Errorf("HPWL not measured")
	}
	if res.MGLStats.Placed != d.MovableCount() {
		t.Errorf("placed %d of %d", res.MGLStats.Placed, d.MovableCount())
	}
	if res.RefineReport.Nodes == 0 {
		t.Errorf("refine did not run")
	}
	if len(res.Timings) == 0 || res.Timings[0].Duration <= 0 || res.Total <= 0 {
		t.Errorf("timings not recorded: %+v, total %v", res.Timings, res.Total)
	}
}

// Table 3's shape: the two post-processing stages reduce the maximum
// displacement markedly and the average at least slightly.
func TestPostProcessingAblation(t *testing.T) {
	var maxBefore, maxAfter, avgBefore, avgAfter float64
	for seed := int64(20); seed < 24; seed++ {
		d1 := bmark.Generate(bmark.Params{
			Name: "abl", Seed: seed, Counts: [4]int{700, 70, 16, 8},
			Density: 0.72, NumFences: 1, FenceFrac: 0.5, Routability: false,
		})
		d2 := d1.Clone()
		r1, err := Run(d1, Options{Workers: 2, SkipMaxDisp: true, SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(d2, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		maxBefore += r1.Metrics.MaxDisp
		maxAfter += r2.Metrics.MaxDisp
		avgBefore += r1.Metrics.AvgDisp
		avgAfter += r2.Metrics.AvgDisp
	}
	if maxAfter >= maxBefore {
		t.Errorf("post-processing did not reduce max disp: %.2f -> %.2f", maxBefore, maxAfter)
	}
	if avgAfter > avgBefore*1.001 {
		t.Errorf("post-processing worsened avg disp: %.4f -> %.4f", avgBefore, avgAfter)
	}
	t.Logf("max %.2f->%.2f avg %.4f->%.4f", maxBefore, maxAfter, avgBefore, avgAfter)
}

func TestTotalDisplacementMode(t *testing.T) {
	d := bmark.Generate(bmark.Params{
		Name: "td", Seed: 6, Counts: [4]int{400, 40, 0, 0}, Density: 0.6,
	})
	res, err := Run(d, Options{Workers: 1, TotalDisplacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalDispSites <= 0 {
		t.Errorf("no displacement: %+v", res.Metrics)
	}
}

func TestInvalidDesignRejected(t *testing.T) {
	d := bmark.Generate(bmark.Params{Name: "bad", Seed: 1, Counts: [4]int{10, 0, 0, 0}, Density: 0.3})
	d.Cells[0].Type = 99
	if _, err := Run(d, Options{}); err == nil {
		t.Fatal("invalid design accepted")
	}
}

func TestEvaluateStandalone(t *testing.T) {
	d := bmark.Generate(bmark.Params{Name: "ev", Seed: 2, Counts: [4]int{100, 10, 0, 0}, Density: 0.5, NetFrac: 0.5})
	before := eval.HPWL(d)
	if _, err := Run(d, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	res := Evaluate(d, before)
	if res.HPWLBefore != before || res.Score <= 0 {
		t.Errorf("Evaluate wrong: %+v", res)
	}
}
