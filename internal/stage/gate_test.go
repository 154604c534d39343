package stage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mclegal/internal/eval"
	"mclegal/internal/faults"
	"mclegal/internal/model"
)

// legalContext builds a pipeline context whose design is already legal
// (cells spaced on distinct sites), so a no-op stage passes its gate.
func legalContext(t *testing.T) *PipelineContext {
	t.Helper()
	d := &model.Design{
		Name: "gate",
		Tech: model.Tech{SiteW: 10, RowH: 80, NumSites: 40, NumRows: 6},
		Types: []model.CellType{
			{Name: "S1", Width: 2, Height: 1},
		},
	}
	for i := 0; i < 8; i++ {
		x, y := 4*i, i%3
		d.Cells = append(d.Cells, model.Cell{
			Name: "c", Type: 0, GX: x, GY: y, X: x, Y: y,
		})
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	pc, err := NewContext(d, false)
	if err != nil {
		t.Fatal(err)
	}
	if vs := eval.Audit(d, pc.Grid); len(vs) > 0 {
		t.Fatalf("fixture not legal: %v", vs)
	}
	return pc
}

// A panicking stage must surface as a typed *PanicError, never crash
// the process — even with gates off.
func TestPanicIsolationWithoutGates(t *testing.T) {
	pc := legalContext(t)
	p := Pipeline{Stages: []Stage{
		&fakeStage{name: "boom", onRun: func(*PipelineContext) { panic("kaboom") }},
	}}
	_, _, err := p.RunWithReport(context.Background(), pc)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Stage != "boom" || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("panic error incomplete: stage %q, stack %d bytes", pe.Stage, len(pe.Stack))
	}
	if !strings.Contains(err.Error(), "stage boom") {
		t.Errorf("error not attributed: %v", err)
	}
}

// With Verify on, a stage that leaves the placement illegal is rolled
// back and a Strict run fails with a GateError naming it.
func TestGateCatchesIllegalResultAndRollsBack(t *testing.T) {
	pc := legalContext(t)
	before := pc.Design.SnapshotXY()
	corrupt := &fakeStage{name: "corrupt", onRun: func(pc *PipelineContext) {
		// Stack cell 0 onto cell 1: a guaranteed overlap.
		pc.Design.Cells[0].X = pc.Design.Cells[1].X
		pc.Design.Cells[0].Y = pc.Design.Cells[1].Y
	}}
	p := Pipeline{Stages: []Stage{corrupt}, Verify: true}
	_, report, err := p.RunWithReport(context.Background(), pc)

	var ge *GateError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %T %v, want *GateError", err, err)
	}
	r := ge.Report
	if r.Stage != "corrupt" || r.Reason != ReasonAudit || !r.RolledBack || r.NumViolations == 0 {
		t.Errorf("report = %+v", r)
	}
	if len(report.Gates) != 1 {
		t.Errorf("run report gates = %+v", report.Gates)
	}
	for i, xy := range pc.Design.SnapshotXY() {
		if xy != before[i] {
			t.Fatalf("cell %d not rolled back: %v != %v", i, xy, before[i])
		}
	}
}

// The injected illegal move (faults harness) must be caught by the
// audit gate exactly like an organic one.
func TestGateCatchesInjectedIllegalMove(t *testing.T) {
	pc := legalContext(t)
	pc.Faults = faults.New().Arm(faults.IllegalMove("noop"))
	p := Pipeline{Stages: []Stage{&fakeStage{name: "noop"}}, Verify: true}
	_, _, err := p.RunWithReport(context.Background(), pc)
	var ge *GateError
	if !errors.As(err, &ge) || ge.Report.Reason != ReasonAudit {
		t.Fatalf("err = %v, want audit GateError", err)
	}
}

// The stage-error injection point fails the stage before it runs.
func TestInjectedStageError(t *testing.T) {
	pc := legalContext(t)
	pc.Faults = faults.New().Arm(faults.StageError("victim"))
	victim := &fakeStage{name: "victim"}
	p := Pipeline{Stages: []Stage{victim}, Verify: true}
	_, _, err := p.RunWithReport(context.Background(), pc)
	var ie *faults.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want injected error", err)
	}
	if victim.ran {
		t.Error("stage ran despite injected stage error")
	}
}

// A failing metric check (here: max displacement growing) trips the
// gate even though the placement stays legal.
func TestMetricRegressionGate(t *testing.T) {
	pc := legalContext(t)
	drift := &fakeStage{name: "drift", onRun: func(pc *PipelineContext) {
		// Legal but far from GP: max displacement grows.
		pc.Design.Cells[0].X = pc.Design.Cells[0].GX + 20
	}}
	before := eval.Measure(pc.Design)
	p := Pipeline{
		Stages: []Stage{drift},
		Verify: true,
		MetricChecks: map[string]func() error{
			"drift": func() error {
				if eval.Measure(pc.Design).MaxDisp > before.MaxDisp {
					return errors.New("max displacement grew")
				}
				return nil
			},
		},
	}
	_, _, err := p.RunWithReport(context.Background(), pc)
	var ge *GateError
	if !errors.As(err, &ge) || ge.Report.Reason != ReasonMetric {
		t.Fatalf("err = %v, want metric GateError", err)
	}
	if pc.Design.Cells[0].X != pc.Design.Cells[0].GX {
		t.Error("metric failure not rolled back")
	}
}

// Fallback policy: a failing stage with a registered fallback is
// repaired and the run reports StatusRecovered.
func TestFallbackStageRepairsRun(t *testing.T) {
	pc := legalContext(t)
	prim := &fakeStage{name: "prim", err: errors.New("boom")}
	fb := &fakeStage{name: "prim-fallback"}
	after := &fakeStage{name: "after"}
	p := Pipeline{
		Stages:    []Stage{prim, after},
		Verify:    true,
		Recovery:  RecoverFallback,
		Fallbacks: map[string]Stage{"prim": fb},
	}
	timings, report, err := p.RunWithReport(context.Background(), pc)
	if err != nil {
		t.Fatal(err)
	}
	if !fb.ran || !after.ran {
		t.Error("fallback or subsequent stage did not run")
	}
	if report.Status != StatusRecovered {
		t.Errorf("status = %v", report.Status)
	}
	if len(report.Gates) != 1 || report.Gates[0].Action != ActionFallback || report.Gates[0].Fallback != "prim-fallback" {
		t.Errorf("gates = %+v", report.Gates)
	}
	// Timings include primary and fallback.
	var names []string
	for _, tm := range timings {
		names = append(names, tm.Stage)
	}
	if got := strings.Join(names, ","); got != "prim,prim-fallback,after" {
		t.Errorf("timings = %s", got)
	}
}

type criticalFake struct{ fakeStage }

func (c *criticalFake) Critical() bool { return true }

// A non-critical failing stage with no fallback is skipped under
// Fallback policy; a critical one fails the run.
func TestSkipVersusCriticalFailure(t *testing.T) {
	pc := legalContext(t)
	after := &fakeStage{name: "after"}
	p := Pipeline{
		Stages:   []Stage{&fakeStage{name: "opt", err: errors.New("boom")}, after},
		Recovery: RecoverFallback,
	}
	_, report, err := p.RunWithReport(context.Background(), pc)
	if err != nil || !after.ran || report.Status != StatusRecovered {
		t.Fatalf("optional failure not skipped: err %v, status %v", err, report.Status)
	}
	if report.Gates[0].Action != ActionSkipped {
		t.Errorf("action = %s", report.Gates[0].Action)
	}

	pc2 := legalContext(t)
	crit := &criticalFake{fakeStage{name: "crit", err: errors.New("boom")}}
	p2 := Pipeline{Stages: []Stage{crit}, Recovery: RecoverFallback}
	_, _, err = p2.RunWithReport(context.Background(), pc2)
	var ge *GateError
	if !errors.As(err, &ge) || ge.Report.Stage != "crit" {
		t.Fatalf("err = %v, want GateError for crit", err)
	}
}

// BestEffort never errors: an unrecoverable critical failure ends the
// run with StatusPartial and the rolled-back placement.
func TestBestEffortReportsPartial(t *testing.T) {
	pc := legalContext(t)
	crit := &criticalFake{fakeStage{name: "crit", err: errors.New("boom")}}
	never := &fakeStage{name: "never"}
	p := Pipeline{Stages: []Stage{crit, never}, Recovery: RecoverBestEffort}
	_, report, err := p.RunWithReport(context.Background(), pc)
	if err != nil {
		t.Fatalf("best-effort returned error %v", err)
	}
	if report.Status != StatusPartial {
		t.Errorf("status = %v", report.Status)
	}
	if never.ran {
		t.Error("stage ran after best-effort abort")
	}
	if report.Gates[len(report.Gates)-1].Action != ActionAborted {
		t.Errorf("gates = %+v", report.Gates)
	}
}

// Cancellation mid-stage is not a gate failure: no rollback, the
// context error propagates unchanged.
func TestCancellationIsNotGated(t *testing.T) {
	pc := legalContext(t)
	ctx, cancel := context.WithCancel(context.Background())
	mover := &fakeStage{name: "mover", onRun: func(pc *PipelineContext) {
		pc.Design.Cells[0].X += 4 // legal move that must survive cancellation
		cancel()
	}}
	mover.err = context.Canceled
	p := Pipeline{Stages: []Stage{mover}, Verify: true, Recovery: RecoverFallback}
	_, report, err := p.RunWithReport(ctx, pc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(report.Gates) != 0 {
		t.Errorf("cancellation produced gate reports: %+v", report.Gates)
	}
	if pc.Design.Cells[0].X == pc.Design.Cells[0].GX {
		t.Error("partial progress rolled back on cancellation")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]RecoveryPolicy{
		"strict": RecoverStrict, "fallback": RecoverFallback,
		"besteffort": RecoverBestEffort, "BEST-EFFORT": RecoverBestEffort,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestPolicyAndStatusStrings(t *testing.T) {
	if RecoverFallback.String() != "fallback" || StatusPartial.String() != "partial" {
		t.Error("stringers wrong")
	}
	if !strings.Contains(RecoveryPolicy(9).String(), "9") || !strings.Contains(Status(9).String(), "9") {
		t.Error("out-of-range stringers wrong")
	}
}
