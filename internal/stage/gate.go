package stage

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"mclegal/internal/eval"
	"mclegal/internal/faults"
)

// This file is the pipeline's resilience layer: legality gates that
// snapshot cell positions before a stage, verify the paper's per-stage
// contract after it (every stage must leave the placement legal,
// Sections 3.1-3.3, and pass the metric check its composer registered:
// the flow checks that matching does not raise the summed φ cost), and
// on failure roll the stage back; recovery policies that decide what
// happens next; and a recover() boundary turning stage panics into
// typed errors so no input can crash the process.

// RecoveryPolicy selects what the pipeline does when a gated stage
// fails (stage error, panic, legality audit, or metric regression).
type RecoveryPolicy int

const (
	// RecoverStrict (the default) fails the run on the first gate
	// failure with a typed *GateError naming the offending stage.
	RecoverStrict RecoveryPolicy = iota
	// RecoverFallback rolls the failing stage back and runs its
	// fallback chain: a substitute stage when one is registered (MGL
	// falls back to the order-preserving greedy), otherwise the stage
	// is skipped if the pipeline can still end legal without it. A
	// critical stage with no working fallback fails the run.
	RecoverFallback
	// RecoverBestEffort is RecoverFallback that never fails the run:
	// when even a critical stage's fallbacks are exhausted, the
	// pipeline stops and faithfully reports a partial result instead
	// of returning an error.
	RecoverBestEffort
)

func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverStrict:
		return "strict"
	case RecoverFallback:
		return "fallback"
	case RecoverBestEffort:
		return "besteffort"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
}

// ParsePolicy converts a policy name ("strict", "fallback",
// "besteffort") to its RecoveryPolicy.
func ParsePolicy(s string) (RecoveryPolicy, error) {
	switch strings.ToLower(s) {
	case "strict":
		return RecoverStrict, nil
	case "fallback":
		return RecoverFallback, nil
	case "besteffort", "best-effort":
		return RecoverBestEffort, nil
	}
	return RecoverStrict, &PolicyError{Input: s}
}

// Status summarizes how trustworthy a finished pipeline run is.
type Status int

const (
	// StatusLegal: every stage passed its gate; no recovery was needed.
	StatusLegal Status = iota
	// StatusRecovered: at least one stage failed but a fallback (or a
	// safe skip) kept the pipeline on a verified placement.
	StatusRecovered
	// StatusPartial: recovery was exhausted; the reported placement is
	// the best known state but is not verified legal.
	StatusPartial
)

func (s Status) String() string {
	switch s {
	case StatusLegal:
		return "legal"
	case StatusRecovered:
		return "recovered"
	case StatusPartial:
		return "partial"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Gate failure reasons recorded in GateReport.Reason.
const (
	ReasonStageError = "stage-error" // the stage returned an error
	ReasonPanic      = "panic"       // the stage (or a worker) panicked
	ReasonAudit      = "audit"       // eval.Audit found violations after the stage
	ReasonMetric     = "metric"      // the metric-regression check failed
)

// Recovery actions recorded in GateReport.Action.
const (
	ActionFailed   = "failed"   // run aborted with a *GateError
	ActionFallback = "fallback" // a substitute stage repaired the run
	ActionSkipped  = "skipped"  // stage rolled back and left out
	ActionAborted  = "aborted"  // best-effort run stopped here (partial)
)

// GateReport describes one gate intervention: which stage failed, why,
// what the gate observed, and how the pipeline recovered.
type GateReport struct {
	// Stage is the name of the failing stage.
	Stage string
	// Reason is one of the Reason* constants.
	Reason string
	// Err is the underlying failure: the stage's error, a *PanicError,
	// or nil for pure audit/metric failures.
	Err error
	// NumViolations is the total audit violation count (Reason ==
	// ReasonAudit); Violations is a bounded sample of them.
	NumViolations int
	Violations    []eval.Violation
	// RolledBack reports whether cell positions were restored to the
	// pre-stage snapshot.
	RolledBack bool
	// Counters carries the failing attempt's stage counters (when the
	// stage implements CounterProvider), captured before the rollback
	// restored the context artifacts the counters are derived from.
	// They are how far the failed attempt got — the rolled-back context
	// no longer shows it.
	Counters map[string]int64
	// Action is one of the Action* constants; for ActionFallback,
	// Fallback names the substitute stage that repaired the run.
	Action   string
	Fallback string
}

func (r GateReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage %s: gate failed (%s", r.Stage, r.Reason)
	if r.Err != nil {
		fmt.Fprintf(&b, ": %v", r.Err)
	}
	if r.NumViolations > 0 {
		fmt.Fprintf(&b, "; %d violations", r.NumViolations)
		if len(r.Violations) > 0 {
			fmt.Fprintf(&b, ", e.g. %s", r.Violations[0].String())
		}
	}
	b.WriteString(")")
	switch r.Action {
	case ActionFallback:
		fmt.Fprintf(&b, ", recovered via %s", r.Fallback)
	case ActionSkipped:
		b.WriteString(", stage skipped")
	case ActionAborted:
		b.WriteString(", run aborted (partial result)")
	case ActionFailed:
		// The base "gate failed" message already says everything a
		// failed (non-recovered) gate has to say.
	}
	return b.String()
}

// GateError is the typed error a strict (or fallback-exhausted) run
// fails with; it carries the full GateReport of the offending stage.
type GateError struct {
	Report GateReport
}

func (e *GateError) Error() string { return e.Report.String() }

// Unwrap exposes the underlying stage error (if any) to errors.Is/As.
func (e *GateError) Unwrap() error { return e.Report.Err }

// PanicError is a panic recovered at the pipeline's stage boundary,
// converted into an error carrying the panic value and stack.
type PanicError struct {
	Stage string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("stage %s: panic: %v", e.Stage, e.Value)
}

// PolicyError reports an unknown recovery-policy name handed to
// ParsePolicy (typically from a CLI flag).
type PolicyError struct {
	Input string
}

func (e *PolicyError) Error() string {
	return fmt.Sprintf("stage: unknown recovery policy %q (want strict, fallback or besteffort)", e.Input)
}

// AuditError reports that a stage left the placement illegal: the
// post-stage audit found violations and the snapshot was restored.
type AuditError struct {
	Stage         string
	NumViolations int
	First         eval.Violation
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("stage %s: left %d legality violations (first: %s)", e.Stage, e.NumViolations, e.First)
}

// RunReport summarizes the resilience layer's view of a finished run.
type RunReport struct {
	// Status is StatusLegal when no gate intervened, StatusRecovered
	// when fallbacks kept the run on a verified placement, and
	// StatusPartial when recovery was exhausted under
	// RecoverBestEffort.
	Status Status
	// Gates lists every gate intervention in execution order.
	Gates []GateReport
}

// maxViolationSample bounds the violations copied into a GateReport;
// NumViolations always carries the full count.
const maxViolationSample = 8

// runIsolated executes s.Run under a recover() boundary: a panic
// anywhere in the stage (worker panics are converted inside mgl; this
// catches everything else) becomes a typed *PanicError instead of a
// process crash.
func runIsolated(ctx context.Context, s Stage, pc *PipelineContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stage: s.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	return s.Run(ctx, pc)
}

// gateOutcome is the result of one gated stage execution.
type gateOutcome struct {
	err      error  // nil = stage passed its gate
	reason   string // Reason* constant when err != nil
	numV     int
	sample   []eval.Violation
	counters map[string]int64 // failing attempt's counters, pre-rollback
}

// runGated executes one stage with the resilience wrapper: snapshot,
// isolated run (with the stage-error injection point), then — when
// verify is on — the post-stage legality audit (with the illegal-move
// injection point) and the stage's metric-regression check. On any
// failure both the placement and the context artifacts are rolled back
// to their snapshots unless the failure is a context cancellation
// (cancelled runs keep their partial progress, matching the engine's
// documented semantics). The failing attempt's counters are captured
// into the outcome first, so the GateReport still shows how far the
// attempt got after its artifacts are gone.
//
//mclegal:restores design.xy,stagectx every gate failure restores the XY snapshot and the artifact snapshot; hotcells and occupancy are per-run scratch rebuilt from the design (see their //mclegal:ephemeral declarations)
func (p *Pipeline) runGated(ctx context.Context, pc *PipelineContext, s Stage, verify bool) gateOutcome {
	snap := pc.Design.SnapshotXY()
	mglStats, maxDispStats, refineReport := pc.MGLStats, pc.MaxDispStats, pc.RefineReport
	rollback := func() map[string]int64 {
		var counters map[string]int64
		if cp, ok := s.(CounterProvider); ok {
			counters = cp.Counters(pc)
		}
		pc.Design.RestoreXY(snap)
		pc.MGLStats, pc.MaxDispStats, pc.RefineReport = mglStats, maxDispStats, refineReport
		return counters
	}

	err := pc.Faults.Err(faults.StageError(s.Name()))
	if err == nil {
		err = runIsolated(ctx, s, pc)
	}
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return gateOutcome{err: err, reason: ""} // cancellation: no rollback
		}
		counters := rollback()
		reason := ReasonStageError
		var pe *PanicError
		if errors.As(err, &pe) {
			reason = ReasonPanic
		}
		return gateOutcome{err: err, reason: reason, counters: counters}
	}
	if !verify {
		return gateOutcome{}
	}

	if pc.Faults.ShouldFire(faults.IllegalMove(s.Name())) {
		injectIllegalMove(pc)
	}
	if vs := eval.Audit(pc.Design, pc.Grid); len(vs) > 0 {
		counters := rollback()
		sample := vs
		if len(sample) > maxViolationSample {
			sample = sample[:maxViolationSample]
		}
		return gateOutcome{
			err:      &AuditError{Stage: s.Name(), NumViolations: len(vs), First: vs[0]},
			reason:   ReasonAudit,
			numV:     len(vs),
			sample:   sample,
			counters: counters,
		}
	}
	if check := p.MetricChecks[s.Name()]; check != nil {
		//mclegal:writeset metric checks are the composer's pure predicates over the stage's artifacts
		if merr := check(); merr != nil {
			counters := rollback()
			return gateOutcome{err: fmt.Errorf("stage %s: %w", s.Name(), merr), reason: ReasonMetric, counters: counters}
		}
	}
	return gateOutcome{}
}

// injectIllegalMove deterministically corrupts the placement: the
// first movable cell is stacked onto the second one, guaranteeing an
// overlap the audit must report.
func injectIllegalMove(pc *PipelineContext) {
	d := pc.Design
	first := -1
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		d.Cells[first].X = d.Cells[i].X
		d.Cells[first].Y = d.Cells[i].Y
		return
	}
}

// FuncStage adapts a plain function to the Stage interface; the flow
// package uses it for fallback stages.
type FuncStage struct {
	StageName string
	Fn        func(ctx context.Context, pc *PipelineContext) error
}

func (f *FuncStage) Name() string { return f.StageName }

func (f *FuncStage) Run(ctx context.Context, pc *PipelineContext) error {
	//mclegal:writeset Fn is the composer's own stage body; the gate audits and rolls back whatever it writes
	return f.Fn(ctx, pc)
}

// CriticalStage marks stages the pipeline cannot recover from by
// skipping: without their output a legal result is unreachable (MGL is
// the only built-in one — the later stages only improve an already
// legal placement).
type CriticalStage interface {
	Critical() bool
}

func isCritical(s Stage) bool {
	c, ok := s.(CriticalStage)
	return ok && c.Critical()
}
