package flow

import (
	"context"
	"errors"
	"testing"
	"time"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/stage"
)

func cancelBench(seed int64) *model.Design {
	return bmark.Generate(bmark.Params{
		Name: "cancel", Seed: seed, Counts: [4]int{900, 90, 20, 8},
		Density: 0.65, NumFences: 1, FenceFrac: 0.5,
	})
}

// A context cancelled before the run starts stops the pipeline before
// any stage executes; the design is untouched.
func TestCancelBeforeRun(t *testing.T) {
	d := cancelBench(51)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, d, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(res.Timings) != 0 || res.MGLStats.Placed != 0 {
		t.Errorf("stages ran after pre-cancellation: %+v", res.Timings)
	}
	for i := range d.Cells {
		if d.Cells[i].X != d.Cells[i].GX || d.Cells[i].Y != d.Cells[i].GY {
			t.Fatalf("cell %d moved by a cancelled run", i)
		}
	}
}

// A context cancelled mid-MGL returns context.Canceled promptly with a
// partial Result, and leaves the design consistent: committed cells
// keep their (legal) positions, the rest stay at GP, and the design
// remains auditable.
func TestCancelMidMGL(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := cancelBench(52)
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{
			Workers: workers,
			MGL: mgl.Options{
				// Cancel at a deterministic point: after the first
				// committed batch.
				DebugAfterBatch: func(placed []model.CellID) bool {
					cancel()
					return true
				},
			},
		}
		start := time.Now()
		res, err := RunContext(ctx, d, opt)
		elapsed := time.Since(start)

		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// "Promptly" with a very generous bound: a full run of this
		// instance takes far longer than one batch.
		if elapsed > 30*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
		// The partial result surfaces where the run stopped.
		if res.MGLStats.Placed == 0 || res.MGLStats.Placed >= d.MovableCount() {
			t.Errorf("workers=%d: placed %d of %d, want a strict partial placement",
				workers, res.MGLStats.Placed, d.MovableCount())
		}
		if len(res.Timings) != 1 || res.Timings[0].Stage != stage.NameMGL || res.Timings[0].Duration <= 0 {
			t.Errorf("workers=%d: timings = %+v", workers, res.Timings)
		}
		if res.Total <= 0 {
			t.Errorf("workers=%d: total time not recorded", workers)
		}

		// Consistent, auditable state: the design still validates and
		// the auditor runs; cells are each either at their GP position
		// or somewhere legal inside the core.
		if err := d.Validate(); err != nil {
			t.Fatalf("workers=%d: design inconsistent after cancel: %v", workers, err)
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatalf("workers=%d: segmentation failed after cancel: %v", workers, err)
		}
		_ = eval.Audit(d, grid) // must not panic; violations are expected
	}
}

// Cancelling while a later stage starts still reports the completed
// stages' artifacts and timings.
func TestCancelAtMaxDispKeepsMGLArtifacts(t *testing.T) {
	d := cancelBench(53)
	ctx, cancel := context.WithCancel(context.Background())
	canceller := stageStartCanceller{at: stage.NameMaxDisp, cancel: cancel}
	res, err := RunContext(ctx, d, Options{Workers: 2, Observer: canceller})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.MGLStats.Placed != d.MovableCount() {
		t.Errorf("MGL artifacts lost: placed %d of %d", res.MGLStats.Placed, d.MovableCount())
	}
	// MGL completed, the matching stage started and was cancelled
	// inside; refine never ran.
	if len(res.Timings) != 2 || res.Timings[0].Duration <= 0 || res.Timings[1].Stage != stage.NameMaxDisp {
		t.Errorf("timings = %+v", res.Timings)
	}
	if res.RefineReport.Nodes != 0 {
		t.Error("refine ran after cancellation")
	}
}

// stageStartCanceller cancels the run when the named stage starts.
type stageStartCanceller struct {
	at     string
	cancel context.CancelFunc
}

func (c stageStartCanceller) StageStart(ev stage.StartEvent) {
	if ev.Stage == c.at {
		c.cancel()
	}
}

func (c stageStartCanceller) StageFinish(stage.FinishEvent) {}

// A run whose context *deadline* expires must fail with the typed
// *DeadlineError — distinguishable from an explicit cancellation —
// while errors.Is still sees context.DeadlineExceeded through Unwrap.
func TestDeadlineSurfacesTypedError(t *testing.T) {
	d := cancelBench(53)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := RunContext(ctx, d, Options{Workers: 1})
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T %v, want *flow.DeadlineError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("DeadlineError does not unwrap to context.DeadlineExceeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Error("deadline expiry claims to be an explicit cancellation")
	}
}

// An explicit cancellation must NOT be reported as a DeadlineError,
// even when the context also carries a (future) deadline.
func TestExplicitCancelIsNotDeadline(t *testing.T) {
	d := cancelBench(54)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	cancel()
	_, err := RunContext(ctx, d, Options{Workers: 1})
	var de *DeadlineError
	if errors.As(err, &de) {
		t.Fatalf("explicit cancel surfaced as DeadlineError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
