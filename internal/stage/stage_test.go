package stage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mgl"
	"mclegal/internal/refine"
)

// fakeStage records its execution and optionally fails, sleeps, or
// cancels the run.
type fakeStage struct {
	name     string
	err      error
	sleep    time.Duration
	onRun    func(pc *PipelineContext)
	counters map[string]int64
	ran      bool
}

func (f *fakeStage) Name() string { return f.name }

func (f *fakeStage) Run(ctx context.Context, pc *PipelineContext) error {
	f.ran = true
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	if f.onRun != nil {
		f.onRun(pc)
	}
	return f.err
}

func (f *fakeStage) Counters(pc *PipelineContext) map[string]int64 { return f.counters }

// recorder captures every observer callback.
type recorder struct {
	starts   []StartEvent
	finishes []FinishEvent
}

func (r *recorder) StageStart(ev StartEvent)   { r.starts = append(r.starts, ev) }
func (r *recorder) StageFinish(ev FinishEvent) { r.finishes = append(r.finishes, ev) }

func smallContext(t *testing.T) *PipelineContext {
	t.Helper()
	d := bmark.Generate(bmark.Params{
		Name: "stage", Seed: 11, Counts: [4]int{120, 12, 0, 0}, Density: 0.5,
	})
	pc, err := NewContext(d, false)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestPipelineRunsStagesInOrder(t *testing.T) {
	pc := smallContext(t)
	var order []string
	mk := func(name string) *fakeStage {
		return &fakeStage{name: name, onRun: func(*PipelineContext) { order = append(order, name) }}
	}
	p := Pipeline{Stages: []Stage{mk("a"), mk("b"), mk("c")}}
	timings, _, err := p.RunWithReport(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,c" {
		t.Errorf("order = %s", got)
	}
	if len(timings) != 3 || timings[0].Stage != "a" || timings[2].Stage != "c" {
		t.Errorf("timings = %+v", timings)
	}
}

func TestPipelineWrapsErrorAndKeepsTimings(t *testing.T) {
	pc := smallContext(t)
	boom := errors.New("boom")
	last := &fakeStage{name: "never"}
	p := Pipeline{Stages: []Stage{
		&fakeStage{name: "ok"},
		&fakeStage{name: "bad", err: boom},
		last,
	}}
	timings, _, err := p.RunWithReport(context.Background(), pc)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "stage bad") {
		t.Errorf("error not wrapped with stage name: %v", err)
	}
	// The failed stage's timing is still reported.
	if len(timings) != 2 || timings[1].Stage != "bad" {
		t.Errorf("timings = %+v", timings)
	}
	if last.ran {
		t.Error("stage after the failure ran")
	}
}

func TestCancelBetweenStages(t *testing.T) {
	pc := smallContext(t)
	ctx, cancel := context.WithCancel(context.Background())
	second := &fakeStage{name: "second"}
	p := Pipeline{Stages: []Stage{
		&fakeStage{name: "first", onRun: func(*PipelineContext) { cancel() }},
		second,
	}}
	timings, _, err := p.RunWithReport(ctx, pc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if second.ran {
		t.Error("stage ran after cancellation")
	}
	if len(timings) != 1 {
		t.Errorf("timings = %+v", timings)
	}
}

func TestObserverReceivesEvents(t *testing.T) {
	pc := smallContext(t)
	rec := &recorder{}
	boom := errors.New("boom")
	p := Pipeline{
		Stages: []Stage{
			&fakeStage{name: "work", sleep: time.Millisecond,
				counters: map[string]int64{"items": 7}},
			&fakeStage{name: "fail", err: boom},
		},
		Observer: rec,
	}
	if _, _, err := p.RunWithReport(context.Background(), pc); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if len(rec.starts) != 2 || len(rec.finishes) != 2 {
		t.Fatalf("starts %d finishes %d", len(rec.starts), len(rec.finishes))
	}
	if rec.starts[0].Cells != pc.Design.MovableCount() {
		t.Errorf("start cells = %d", rec.starts[0].Cells)
	}
	fin := rec.finishes[0]
	if fin.Duration <= 0 || fin.CellsPerSec <= 0 {
		t.Errorf("finish duration %v cells/s %f", fin.Duration, fin.CellsPerSec)
	}
	if fin.Counters["items"] != 7 {
		t.Errorf("counters = %v", fin.Counters)
	}
	if rec.finishes[1].Err == nil {
		t.Error("failed stage's finish event has no error")
	}
	if rec.starts[1].Index != 1 || rec.starts[1].Total != 2 {
		t.Errorf("event indexing = %+v", rec.starts[1])
	}
}

// The three real stages compose into the paper's full pipeline and
// populate the typed artifacts.
func TestRealStagesEndToEnd(t *testing.T) {
	d := bmark.Generate(bmark.Params{
		Name: "real", Seed: 7, Counts: [4]int{400, 40, 10, 4},
		Density: 0.6, NumFences: 1, FenceFrac: 0.5, Routability: true,
	})
	pc, err := NewContext(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Rules == nil {
		t.Fatal("routability rules not built")
	}
	p := Pipeline{Stages: []Stage{
		NewMGL(mgl.Options{Workers: 2}),
		NewMaxDisp(maxdisp.Options{}),
		NewRefine(refine.Options{Weights: refine.WeightHeightAverage, MaxDispWeight: 10}, true),
	}}
	timings, _, err := p.RunWithReport(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 3 {
		t.Fatalf("timings = %+v", timings)
	}
	if pc.MGLStats.Placed != d.MovableCount() {
		t.Errorf("placed %d of %d", pc.MGLStats.Placed, d.MovableCount())
	}
	if pc.MaxDispStats.Groups == 0 {
		t.Error("matching solved no groups")
	}
	if pc.RefineReport.Nodes == 0 {
		t.Error("refine built no network")
	}
}

func TestLogObserverOutput(t *testing.T) {
	var buf bytes.Buffer
	o := NewLogObserver(&buf)
	o.StageStart(StartEvent{Stage: "mgl", Index: 0, Total: 3, Cells: 100})
	o.StageFinish(FinishEvent{
		Stage: "mgl", Index: 0, Total: 3, Duration: 20 * time.Millisecond,
		CellsPerSec: 5000, Counters: map[string]int64{"b": 2, "a": 1},
	})
	o.StageFinish(FinishEvent{Stage: "mgl", Index: 0, Total: 3,
		Duration: time.Millisecond, Err: fmt.Errorf("kaput")})
	out := buf.String()
	for _, want := range []string{"[1/3] mgl", "start (100 cells)", "a=1 b=2", "5000 cells/s", "FAILED", "kaput"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONObserverOutput(t *testing.T) {
	var buf bytes.Buffer
	o := NewJSONObserver(&buf)
	o.StageStart(StartEvent{Stage: "maxdisp", Index: 1, Total: 3, Cells: 50})
	o.StageFinish(FinishEvent{
		Stage: "maxdisp", Index: 1, Total: 3, Duration: time.Second,
		CellsPerSec: 50, Counters: map[string]int64{"matchings_solved": 4},
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var start, finish map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &start); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &finish); err != nil {
		t.Fatal(err)
	}
	if start["event"] != "stage_start" || start["stage"] != "maxdisp" || start["cells"] != float64(50) {
		t.Errorf("start = %v", start)
	}
	if finish["event"] != "stage_finish" || finish["seconds"] != float64(1) {
		t.Errorf("finish = %v", finish)
	}
	if c := finish["counters"].(map[string]any); c["matchings_solved"] != float64(4) {
		t.Errorf("counters = %v", c)
	}
}

func TestMultiObserver(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	m := MultiObserver(a, b)
	m.StageStart(StartEvent{Stage: "x"})
	m.StageFinish(FinishEvent{Stage: "x"})
	if len(a.starts) != 1 || len(b.starts) != 1 || len(a.finishes) != 1 || len(b.finishes) != 1 {
		t.Error("events not fanned out")
	}
}
