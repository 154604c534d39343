package stage

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/faults"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/refine"
)

// This file is the dynamic half of the snapshotsafe proof: the static
// analyzer proves every gated stage's write set is covered by the
// gate's //mclegal:restores declaration (plus the //mclegal:ephemeral
// scratch), and these tests demonstrate the runtime consequence — a
// rolled-back stage leaves the design deep-equal to its pre-stage
// state and the context artifacts exactly as they were. The analysis
// pin test (analysis.TestStageWriteSetsMatchRollbackProof) holds the
// two halves together: every stage the analyzer proves must have a
// subtest here, and every subtest here must correspond to a proof.

// rollbackCase prepares a PipelineContext the stage under test can run
// on. MGL starts from GP positions; the improvement stages need a
// placement that is already legal on entry.
type rollbackCase struct {
	stage Stage
	prep  func(t *testing.T) *PipelineContext
}

func generated(t *testing.T, seed int64) *model.Design {
	t.Helper()
	return bmark.Generate(bmark.Params{
		Name: "rollback", Seed: seed, Counts: [4]int{200, 20, 6, 2},
		Density: 0.6, NumFences: 1, FenceFrac: 0.5,
	})
}

// freshContext returns a context over a generated (GP, generally
// illegal) design — the state MGL starts from.
func freshContext(t *testing.T, seed int64) *PipelineContext {
	t.Helper()
	pc, err := NewContext(generated(t, seed), false)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// legalizedContext runs MGL ungated first, so the stage under test
// starts from a legal placement like it would mid-pipeline.
func legalizedContext(t *testing.T, seed int64) *PipelineContext {
	t.Helper()
	pc := freshContext(t, seed)
	p := Pipeline{Stages: []Stage{NewMGL(mgl.Options{})}}
	if _, _, err := p.RunWithReport(context.Background(), pc); err != nil {
		t.Fatalf("prep legalization: %v", err)
	}
	return pc
}

// TestGateRollbackRestoresDesignAndArtifacts runs every built-in stage
// (and a custom FuncStage) to completion under an injected illegal-move
// fault, so the gate audits the corrupted result, rolls back, and must
// restore everything the stage wrote: cell positions byte-for-byte and
// the context's typed stats and reports to their pre-stage values. The failing attempt's counters must still
// surface in the GateReport, since the rolled-back context no longer
// shows them.
func TestGateRollbackRestoresDesignAndArtifacts(t *testing.T) {
	cases := map[string]rollbackCase{
		"MGLStage": {
			stage: NewMGL(mgl.Options{}),
			prep:  func(t *testing.T) *PipelineContext { return freshContext(t, 11) },
		},
		"MaxDispStage": {
			stage: NewMaxDisp(maxdisp.Options{}),
			prep:  func(t *testing.T) *PipelineContext { return legalizedContext(t, 12) },
		},
		"RefineStage": {
			stage: NewRefine(refine.Options{Weights: refine.WeightHeightAverage, MaxDispWeight: 10}, false),
			prep:  func(t *testing.T) *PipelineContext { return legalizedContext(t, 13) },
		},
		"FuncStage": {
			stage: &FuncStage{
				StageName: "custom",
				Fn: func(ctx context.Context, pc *PipelineContext) error {
					pc.Design.Cells[0].X++
					pc.MaxDispStats.Swapped = 42
					return nil
				},
			},
			prep: func(t *testing.T) *PipelineContext { return legalizedContext(t, 14) },
		},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			pc := tc.prep(t)
			pc.Faults = faults.New().Arm(faults.IllegalMove(tc.stage.Name()))

			want := pc.Design.Clone()
			wantMGL, wantMaxDisp, wantRefine := pc.MGLStats, pc.MaxDispStats, pc.RefineReport

			p := Pipeline{Stages: []Stage{tc.stage}, Verify: true}
			_, report, err := p.RunWithReport(context.Background(), pc)

			var ge *GateError
			if !errors.As(err, &ge) || ge.Report.Reason != ReasonAudit {
				t.Fatalf("err = %v, want audit GateError", err)
			}
			if !ge.Report.RolledBack {
				t.Error("gate did not report a rollback")
			}
			if len(report.Gates) != 1 {
				t.Fatalf("gate reports = %d, want 1", len(report.Gates))
			}

			if !reflect.DeepEqual(pc.Design, want) {
				t.Error("rolled-back design differs from its pre-stage state")
			}
			if pc.MGLStats != wantMGL {
				t.Errorf("MGLStats not restored: %+v, want %+v", pc.MGLStats, wantMGL)
			}
			if pc.MaxDispStats != wantMaxDisp {
				t.Errorf("MaxDispStats not restored: %+v, want %+v", pc.MaxDispStats, wantMaxDisp)
			}
			if pc.RefineReport != wantRefine {
				t.Errorf("RefineReport not restored: %+v, want %+v", pc.RefineReport, wantRefine)
			}

			if _, ok := tc.stage.(CounterProvider); ok {
				if len(ge.Report.Counters) == 0 {
					t.Error("failing attempt's counters missing from the gate report")
				}
			}
		})
	}
}

// A cancelled stage keeps its partial artifacts — the gate's
// rollback-completeness contract deliberately excludes cancellation
// (see the runGated doc and //mclegal:restores justification).
func TestCancellationKeepsPartialArtifacts(t *testing.T) {
	pc := legalizedContext(t, 15)
	ctx, cancel := context.WithCancel(context.Background())
	st := &FuncStage{
		StageName: "cancelled",
		Fn: func(ctx context.Context, pc *PipelineContext) error {
			pc.MaxDispStats.Swapped = 7
			cancel()
			return ctx.Err()
		},
	}
	p := Pipeline{Stages: []Stage{st}, Verify: true}
	_, _, err := p.RunWithReport(ctx, pc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := pc.MaxDispStats.Swapped; got != 7 {
		t.Errorf("cancelled stage's partial artifact lost: Swapped = %d, want 7", got)
	}
}
