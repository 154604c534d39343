// Package stage is the pipeline engine behind the three-stage
// legalization flow (paper Figure 2): a Stage interface, a shared
// PipelineContext carrying the design and the statistics every stage
// records, and a Pipeline runner that owns timing, context
// cancellation, error wrapping and observer notification.
//
// The flow package composes the built-in stages (NewMGL, NewMaxDisp,
// NewRefine) from its Options; ablations such as the paper's Table 3
// are expressed by leaving a stage out of the composition rather than
// by flags inside a monolithic function. Custom stages only need to
// implement Stage (and optionally CounterProvider) to participate in
// timing and observability.
package stage

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mclegal/internal/faults"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/refine"
	"mclegal/internal/route"
	"mclegal/internal/seg"
)

// Stage is one pass of the legalization pipeline. Run mutates the
// design carried by the PipelineContext in place and records its
// artifacts there; it must return promptly (with ctx.Err()) once ctx
// is cancelled, leaving the design consistent even if not legal.
type Stage interface {
	Name() string
	Run(ctx context.Context, pc *PipelineContext) error
}

// CounterProvider is an optional Stage extension: stages that implement
// it have their counters attached to the observer's finish event.
type CounterProvider interface {
	Counters(pc *PipelineContext) map[string]int64
}

// PipelineContext is the state shared by all stages of one run: the
// design being legalized, its segmentation grid, the routability
// rules/checker (when enabled), and the typed artifacts of the
// built-in stages.
type PipelineContext struct {
	Design *model.Design
	Grid   *seg.Grid
	// Rules is non-nil when routability handling (paper Section 3.4)
	// is enabled; the MGL and refinement stages consult it.
	Rules *route.Rules
	// Checker counts pin and edge-spacing violations; it is always
	// present so post-run scoring works with or without routability.
	Checker *route.Checker
	// Faults is the optional fault-injection harness shared by the
	// run; gates consult the per-stage stage-error and illegal-move
	// points on it. Nil disables injection.
	Faults *faults.Injector

	// Artifacts of the built-in stages, populated by their Run methods
	// (partially populated artifacts survive a failed or cancelled
	// stage so operators can see how far the run got).
	MGLStats     mgl.Stats
	MaxDispStats maxdisp.Stats
	RefineReport refine.Report
}

// NewContext builds the shared pipeline state for d: the segmentation
// grid, the violation checker, and (when routability is enabled) the
// Section 3.4 rules.
func NewContext(d *model.Design, routability bool) (*PipelineContext, error) {
	grid, err := seg.Build(d)
	if err != nil {
		return nil, err
	}
	checker := route.NewChecker(d)
	pc := &PipelineContext{Design: d, Grid: grid, Checker: checker}
	if routability {
		pc.Rules = route.NewRules(checker)
	}
	return pc, nil
}

// Timing is the measured duration of one executed stage.
type Timing struct {
	Stage    string
	Duration time.Duration
}

// Pipeline runs a stage list over a shared context. The runner owns
// what every stage would otherwise duplicate: cancellation checks
// between stages, per-stage timing, error wrapping with the stage
// name, observer notification, panic isolation, and — when Verify or
// a non-strict Recovery policy is set — the legality gates and
// fallback chains of gate.go.
type Pipeline struct {
	Stages   []Stage
	Observer Observer // optional

	// Verify arms the legality gates: every stage runs against a
	// position snapshot, is audited (eval.Audit) afterwards, checked
	// for metric regressions, and rolled back on any failure.
	Verify bool
	// Recovery selects what a gate failure does to the run; see the
	// RecoveryPolicy constants. The zero value is RecoverStrict.
	Recovery RecoveryPolicy
	// Fallbacks maps a stage name to the substitute stage run (also
	// gated) after the primary failed and was rolled back.
	Fallbacks map[string]Stage
	// MetricChecks maps a stage name to its metric-regression
	// predicate, evaluated by the gate after the stage's audit when
	// Verify is on. A check reads what it needs from the context its
	// composer bound it to.
	MetricChecks map[string]func() error
}

// RunWithReport executes the stages in order. It returns the timing
// of every stage that started — including a failed or cancelled one —
// so a partial run remains attributable, and the resilience layer's
// RunReport: the run's trust status and every gate intervention. An
// ungated failure is wrapped with the stage's name. Without gates
// (Verify off, strict recovery) stages still run under panic
// isolation, so a panicking stage fails the run with a *PanicError
// instead of crashing the process.
//
//mclegal:writes design.xy,hotcells,occupancy,stagectx the pipeline mutates exactly what its stages mutate: positions, artifacts, and the per-run scratch views
func (p *Pipeline) RunWithReport(ctx context.Context, pc *PipelineContext) ([]Timing, RunReport, error) {
	report := RunReport{Status: StatusLegal}
	timings := make([]Timing, 0, len(p.Stages))
	gated := p.Verify || p.Recovery != RecoverStrict

	for i, s := range p.Stages {
		if err := ctx.Err(); err != nil {
			return timings, report, err
		}
		out := p.runObserved(ctx, pc, s, i, gated, &timings)
		if out.err == nil {
			continue
		}
		if ctx.Err() != nil && errors.Is(out.err, ctx.Err()) {
			return timings, report, out.err // cancellation, not a gate failure
		}
		if !gated {
			// Engine-compatible strict path: wrapped error, partial
			// artifacts preserved, no rollback.
			return timings, report, fmt.Errorf("stage %s: %w", s.Name(), out.err)
		}

		rep := GateReport{
			Stage: s.Name(), Reason: out.reason, Err: out.err,
			NumViolations: out.numV, Violations: out.sample, RolledBack: true,
			Counters: out.counters,
		}
		if p.Recovery == RecoverStrict {
			rep.Action = ActionFailed
			report.Gates = append(report.Gates, rep)
			return timings, report, &GateError{Report: rep}
		}

		// Fallback chain: substitute stage first, then skipping.
		if fb := p.Fallbacks[s.Name()]; fb != nil {
			fbOut := p.runObserved(ctx, pc, fb, i, gated, &timings)
			if fbOut.err == nil {
				rep.Action, rep.Fallback = ActionFallback, fb.Name()
				report.Gates = append(report.Gates, rep)
				report.Status = StatusRecovered
				continue
			}
			if ctx.Err() != nil && errors.Is(fbOut.err, ctx.Err()) {
				report.Gates = append(report.Gates, rep)
				return timings, report, fbOut.err
			}
			report.Gates = append(report.Gates, GateReport{
				Stage: fb.Name(), Reason: fbOut.reason, Err: fbOut.err,
				NumViolations: fbOut.numV, Violations: fbOut.sample,
				RolledBack: true, Action: ActionFailed,
				Counters: fbOut.counters,
			})
		}
		if !isCritical(s) {
			rep.Action = ActionSkipped
			report.Gates = append(report.Gates, rep)
			report.Status = StatusRecovered
			continue
		}
		// A critical stage with its fallbacks exhausted.
		if p.Recovery == RecoverFallback {
			rep.Action = ActionFailed
			report.Gates = append(report.Gates, rep)
			return timings, report, &GateError{Report: rep}
		}
		rep.Action = ActionAborted
		report.Gates = append(report.Gates, rep)
		report.Status = StatusPartial
		return timings, report, nil
	}
	return timings, report, nil
}

// runObserved executes one stage (gated or merely panic-isolated) with
// observer notification and timing capture.
func (p *Pipeline) runObserved(ctx context.Context, pc *PipelineContext, s Stage, index int, gated bool, timings *[]Timing) gateOutcome {
	cells := pc.Design.MovableCount()
	if p.Observer != nil {
		p.Observer.StageStart(StartEvent{
			Stage: s.Name(), Index: index, Total: len(p.Stages), Cells: cells,
		})
	}
	//mclegal:wallclock stage timing feeds observer events only, never placement
	t0 := time.Now()
	var out gateOutcome
	if gated {
		out = p.runGated(ctx, pc, s, p.Verify)
	} else {
		out.err = runIsolated(ctx, s, pc)
		if out.err != nil {
			var pe *PanicError
			if errors.As(out.err, &pe) {
				out.reason = ReasonPanic
			} else {
				out.reason = ReasonStageError
			}
		}
	}
	//mclegal:wallclock stage timing feeds observer events only, never placement
	dur := time.Since(t0)
	*timings = append(*timings, Timing{Stage: s.Name(), Duration: dur})
	if p.Observer != nil {
		ev := FinishEvent{
			Stage: s.Name(), Index: index, Total: len(p.Stages),
			Duration: dur, Err: out.err,
		}
		if cp, ok := s.(CounterProvider); ok {
			ev.Counters = cp.Counters(pc)
		}
		if secs := dur.Seconds(); secs > 0 {
			ev.CellsPerSec = float64(cells) / secs
		}
		p.Observer.StageFinish(ev)
	}
	return out
}
