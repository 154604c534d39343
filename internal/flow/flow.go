// Package flow composes the paper's complete three-stage legalization
// pipeline (Figure 2) — multi-row global legalization, matching-based
// maximum-displacement optimization, and fixed-row-and-order MCF
// refinement — on top of the stage engine in internal/stage, with
// optional routability handling (Section 3.4) threaded through every
// stage. Options select which stages are composed (the Table 3
// ablations are stage lists, not flags inside the stages), Validate
// centralizes range checks and defaulting, and RunContext makes the
// whole pipeline cancellable and observable.
package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mclegal/internal/baseline"
	"mclegal/internal/eval"
	"mclegal/internal/faults"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/refine"
	"mclegal/internal/route"
	"mclegal/internal/seg"
	"mclegal/internal/shard"
	"mclegal/internal/stage"
)

// NameGreedyFallback is the stage name of the MGL fallback (the
// order-preserving greedy legalizer) in timings, observer events and
// gate reports.
const NameGreedyFallback = "greedy-fallback"

// Options configures a pipeline run.
type Options struct {
	// Routability enables the Section 3.4 handling: pin-aware row and
	// x steering in MGL, IO penalties, and rail-safe feasible ranges
	// in the refinement.
	Routability bool
	// TotalDisplacement switches the refinement to uniform weights
	// (the Table 2 objective) instead of the contest S_am weights.
	TotalDisplacement bool
	// SkipMaxDisp and SkipRefine leave post-processing stages out of
	// the composed pipeline (Table 3 ablation).
	SkipMaxDisp, SkipRefine bool
	// Workers is the MGL evaluation thread count (0 = GOMAXPROCS).
	// The result never depends on it.
	Workers int
	// Delta0Rows is the φ threshold of the matching stage. 0 picks the
	// default: 10 rows, or effectively-infinite under a pure
	// total-displacement objective (φ must stay in its linear regime,
	// where the matching minimizes the plain total displacement).
	Delta0Rows float64
	// MaxDispWeight is n_0 of the refinement; 0 picks a default
	// proportional to the summed cell weights.
	MaxDispWeight int64
	// MGL allows overriding low-level legalizer options; Workers and
	// Rules are filled in by the pipeline.
	MGL mgl.Options
	// Observer, when set, receives stage start/finish events with
	// per-stage durations and work counters.
	Observer stage.Observer
	// Verify arms the per-stage legality gates: every stage runs
	// against a position snapshot, its result is audited (eval.Audit)
	// and checked for metric regressions, and any failure rolls the
	// stage back before the Recovery policy decides what happens next.
	Verify bool
	// Recovery selects the failure-handling policy: RecoverStrict
	// (default) fails the run on the first gate failure,
	// RecoverFallback runs per-stage fallback chains (MGL falls back
	// to the order-preserving greedy legalizer, the matching and
	// refinement stages are skipped), RecoverBestEffort additionally
	// never fails — an unrecoverable run ends with a faithfully
	// reported partial result instead of an error.
	Recovery stage.RecoveryPolicy
	// Faults is the optional deterministic fault-injection harness
	// consulted at the pipeline's injection points; see
	// internal/faults. Nil (the default) disables injection. In a
	// sharded run every shard consults its own Fork of the injector,
	// keyed by plan index, so injected behavior stays a function of the
	// plan rather than of shard scheduling order.
	Faults *faults.Injector
	// Shards enables sharded execution: the design is decomposed into
	// per-fence regions plus default-region die slabs (internal/shard)
	// and every shard runs the full stage pipeline on its own
	// subdesign, with Shards bounding how many legalize concurrently.
	// 0 (the default) keeps the monolithic single-pipeline path. Like
	// Workers, Shards is a pure concurrency knob: the decomposition is
	// a function of the design and ShardPlan alone, so the merged
	// placement is byte-identical for every Shards >= 1.
	Shards int
	// ShardPlan tunes the shard decomposition (slab size target and
	// utilization guard); ignored when Shards == 0.
	ShardPlan shard.Options
}

// ParseShards parses a -shards flag value: a non-negative shard
// concurrency, or "auto" for the machine's CPU count. 0 (and the empty
// string) select the monolithic path.
func ParseShards(s string) (int, error) {
	switch s {
	case "", "0":
		return 0, nil
	case "auto":
		return runtime.NumCPU(), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("flow: invalid shard count %q (want a non-negative integer or \"auto\")", s)
	}
	return n, nil
}

// Validate checks Options ranges and applies defaults in place. Run
// calls it on its own copy; callers building Options programmatically
// can call it early to fail fast.
func (o *Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("flow: Workers must be >= 0, got %d", o.Workers)
	}
	if o.Delta0Rows < 0 {
		return fmt.Errorf("flow: Delta0Rows must be >= 0, got %g", o.Delta0Rows)
	}
	if o.MaxDispWeight < 0 {
		return fmt.Errorf("flow: MaxDispWeight must be >= 0, got %d", o.MaxDispWeight)
	}
	if o.MGL.Workers != 0 && o.MGL.Workers != o.Workers {
		return fmt.Errorf("flow: set Workers on Options, not Options.MGL (got %d vs %d)",
			o.MGL.Workers, o.Workers)
	}
	if o.Recovery < stage.RecoverStrict || o.Recovery > stage.RecoverBestEffort {
		return fmt.Errorf("flow: unknown recovery policy %d", o.Recovery)
	}
	if o.Shards < 0 {
		return fmt.Errorf("flow: Shards must be >= 0, got %d", o.Shards)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Delta0Rows == 0 {
		if o.TotalDisplacement {
			o.Delta0Rows = 1e9
		} else {
			o.Delta0Rows = 10
		}
	}
	return nil
}

// DeadlineError reports that the run's deadline budget expired
// mid-pipeline — as opposed to an explicit caller cancellation, which
// surfaces as a plain context.Canceled. Callers with different
// contracts for "too slow" and "told to stop" (the CLI's exit codes,
// the serving layer's HTTP codes) dispatch on it with errors.As;
// errors.Is(err, context.DeadlineExceeded) also remains true through
// Unwrap.
type DeadlineError struct {
	// Cause is the underlying context error chain (always satisfying
	// errors.Is(Cause, context.DeadlineExceeded)).
	Cause error
	// Elapsed is how long the run had been going when the deadline cut
	// it off.
	Elapsed time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("flow: deadline exceeded after %v", e.Elapsed)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *DeadlineError) Unwrap() error { return e.Cause }

// Result reports the pipeline outcome.
type Result struct {
	Metrics    eval.Metrics
	Violations route.Violations
	HPWLBefore int64
	HPWLAfter  int64
	Score      float64

	Total time.Duration

	// Timings lists every stage that started, in execution order —
	// including a failed or cancelled one.
	Timings []stage.Timing

	// Status is the resilience layer's trust verdict: StatusLegal
	// (every stage passed), StatusRecovered (a fallback or safe skip
	// repaired the run), or StatusPartial (best-effort recovery was
	// exhausted; the placement is the best known state but not
	// verified legal).
	Status stage.Status
	// Gates lists every gate intervention of the run, in order.
	Gates []stage.GateReport

	// Stage artifacts. In a sharded run these are summed across shards
	// (MGLStats.Workers reports the per-shard maximum); the per-shard
	// breakdown is in Shards.
	MGLStats     mgl.Stats
	MaxDispStats maxdisp.Stats
	RefineReport refine.Report

	// Shards reports the per-shard outcomes of a sharded run, in plan
	// order; nil in monolithic runs.
	Shards []ShardOutcome
}

// ShardOutcome is one shard's slice of a sharded Result.
type ShardOutcome struct {
	// Name is the plan region's name ("fence3-pll", "slab1", ...).
	Name string
	// Cells is the shard's movable-cell count.
	Cells int
	// Status is the shard pipeline's own trust verdict.
	Status stage.Status
	// Error is the shard pipeline's failure, "" on success.
	Error string
	// Timings lists the shard's executed stages, in order.
	Timings []stage.Timing

	MGLStats     mgl.Stats
	MaxDispStats maxdisp.Stats
	RefineReport refine.Report
}

// Stages builds the stage list selected by opt for d: MGL always, the
// matching and refinement stages unless skipped. opt must already be
// validated.
func Stages(d *model.Design, opt Options) []stage.Stage {
	mglOpt := opt.MGL
	mglOpt.Workers = opt.Workers
	list := []stage.Stage{stage.NewMGL(mglOpt)}

	if !opt.SkipMaxDisp {
		list = append(list, stage.NewMaxDisp(maxdisp.Options{Delta0Rows: opt.Delta0Rows}))
	}

	if !opt.SkipRefine {
		rOpt := refine.Options{MaxDispWeight: opt.MaxDispWeight}
		if opt.TotalDisplacement {
			rOpt.Weights = refine.WeightUniform
		} else {
			rOpt.Weights = refine.WeightHeightAverage
		}
		if rOpt.MaxDispWeight == 0 && !opt.TotalDisplacement {
			// Default n_0: two orders of magnitude below the summed
			// displacement weights, so the max-displacement terms can
			// win local trades without dominating the average. A pure
			// total-displacement objective keeps n_0 = 0.
			rOpt.MaxDispWeight = 1 + 4*int64(d.MovableCount())/100
		}
		list = append(list, stage.NewRefine(rOpt, opt.Routability))
	}
	return list
}

// Run legalizes d in place and returns the evaluation of the result.
//
//mclegal:writes design.meta,design.xy,hotcells,occupancy,stagectx the flow runs the full pipeline: stages write positions, artifacts and scratch views, and sharding splits/merges the design's cell tables
func Run(d *model.Design, opt Options) (Result, error) {
	return RunContext(context.Background(), d, opt)
}

// RunContext legalizes d in place under ctx. Cancellation aborts
// between units of work inside every stage with ctx.Err(), leaving the
// design consistent (auditable) though generally not legal.
//
// On error the returned Result still carries everything gathered up to
// the failure — per-stage timings and the artifacts of completed and
// partially-run stages — so operators can see where the time went.
//
//mclegal:writes design.meta,design.xy,hotcells,occupancy,stagectx the flow runs the full pipeline: stages write positions, artifacts and scratch views, and sharding splits/merges the design's cell tables
func RunContext(ctx context.Context, d *model.Design, opt Options) (Result, error) {
	var res Result
	if err := opt.Validate(); err != nil {
		return res, err
	}
	if err := d.Validate(); err != nil {
		return res, err
	}
	//mclegal:wallclock total-runtime reporting only, never influences placement
	start := time.Now()
	res.HPWLBefore = eval.HPWL(d)

	var perr error
	if opt.Shards > 0 {
		perr = runSharded(ctx, d, opt, &res)
	} else {
		perr = runMonolithic(ctx, d, opt, &res)
	}
	//mclegal:wallclock total-runtime reporting only, never influences placement
	res.Total = time.Since(start)
	if perr != nil {
		if errors.Is(perr, context.DeadlineExceeded) {
			// Deadline expiry is a distinct failure class from caller
			// cancellation: the caller set a time budget and the run
			// honestly exceeded it.
			return res, &DeadlineError{Cause: perr, Elapsed: res.Total}
		}
		return res, fmt.Errorf("flow: %w", perr)
	}
	ev := Evaluate(d, res.HPWLBefore)
	res.Metrics, res.Violations, res.HPWLAfter, res.Score = ev.Metrics, ev.Violations, ev.HPWLAfter, ev.Score
	return res, nil
}

// buildPipeline assembles the gated stage pipeline legalizing pc's
// design. The metric-check closures capture pc, so every shard of a
// sharded run gets checks bound to its own context.
func buildPipeline(pc *stage.PipelineContext, opt Options) stage.Pipeline {
	return stage.Pipeline{
		Stages:   Stages(pc.Design, opt),
		Observer: opt.Observer,
		Verify:   opt.Verify,
		Recovery: opt.Recovery,
		// MGL is the only stage whose failure needs a substitute: the
		// order-preserving greedy sweep (the Abacus-extension baseline)
		// is slower on displacement but far harder to break. The
		// matching and refinement stages recover by skipping, which
		// keeps the verified pre-stage placement.
		Fallbacks: map[string]stage.Stage{
			stage.NameMGL: &stage.FuncStage{
				StageName: NameGreedyFallback,
				Fn: func(ctx context.Context, pc *stage.PipelineContext) error {
					if err := ctx.Err(); err != nil {
						return err
					}
					return baseline.AbacusExt(pc.Design)
				},
			},
		},
		// Paper Section 3.2: each matching is an optimal assignment, so
		// the summed φ cost can never exceed the identity assignment's —
		// a larger total φ after the stage is a broken invariant. (The
		// raw max displacement in rows may grow slightly: φ is linear
		// below δ0, where trades across cells are by design.)
		MetricChecks: map[string]func() error{
			stage.NameMaxDisp: func() error {
				if st := pc.MaxDispStats; st.CostAfter > st.CostBefore {
					return fmt.Errorf("maxdisp: phi cost regressed from %d to %d",
						st.CostBefore, st.CostAfter)
				}
				return nil
			},
		},
	}
}

// runMonolithic is the classic single-pipeline path.
func runMonolithic(ctx context.Context, d *model.Design, opt Options, res *Result) error {
	pc, err := stage.NewContext(d, opt.Routability)
	if err != nil {
		return err
	}
	pc.Faults = opt.Faults

	p := buildPipeline(pc, opt)
	timings, report, perr := p.RunWithReport(ctx, pc)

	// Stage artifacts and timings are reported even when a stage
	// failed or the run was cancelled.
	res.MGLStats = pc.MGLStats
	res.MaxDispStats = pc.MaxDispStats
	res.RefineReport = pc.RefineReport
	res.Timings = timings
	res.Status = report.Status
	res.Gates = report.Gates
	return perr
}

// runSharded decomposes d into the shard plan's regions, legalizes
// every region's subdesign through its own full pipeline (at most
// opt.Shards concurrently), and merges the disjoint placements back.
func runSharded(ctx context.Context, d *model.Design, opt Options, res *Result) error {
	grid, err := seg.Build(d)
	if err != nil {
		return err
	}
	plan := shard.BuildPlan(d, grid, opt.ShardPlan)
	shards := make([]stage.Shard, len(plan.Regions))
	for i, r := range plan.Regions {
		sub, err := model.NewSubdesign(d, r.Name, r.Cells, r.Blockages)
		if err != nil {
			return fmt.Errorf("shard %s: %w", r.Name, err)
		}
		shards[i] = stage.Shard{Name: r.Name, Sub: sub, Index: i}
	}

	sp := &stage.ShardedPipeline{
		Workers: opt.Shards,
		Make: func(sh stage.Shard) (*stage.Pipeline, *stage.PipelineContext, error) {
			spc, err := stage.NewContext(sh.Sub.Design, opt.Routability)
			if err != nil {
				return nil, nil, err
			}
			// Each shard gets its own deterministic fork of the
			// injector: per-shard hit counters keyed by plan index, so
			// what fires never depends on shard scheduling order.
			spc.Faults = opt.Faults.Fork(sh.Index)
			p := buildPipeline(spc, opt)
			return &p, spc, nil
		},
	}
	results, report, perr := sp.Run(ctx, d, shards)

	res.Status = report.Status
	res.Gates = report.Gates
	for i := range results {
		r := &results[i]
		out := ShardOutcome{
			Name:    r.Shard.Name,
			Cells:   r.Shard.Sub.Movables,
			Status:  r.Report.Status,
			Timings: r.Timings,
		}
		if r.Err != nil {
			out.Error = r.Err.Error()
		}
		for _, tm := range r.Timings {
			res.Timings = append(res.Timings, stage.Timing{
				Stage:    r.Shard.Name + "/" + tm.Stage,
				Duration: tm.Duration,
			})
		}
		if pc := r.Context; pc != nil {
			out.MGLStats = pc.MGLStats
			out.MaxDispStats = pc.MaxDispStats
			out.RefineReport = pc.RefineReport
			res.MGLStats.Placed += pc.MGLStats.Placed
			res.MGLStats.WindowRetries += pc.MGLStats.WindowRetries
			res.MGLStats.QualityRetries += pc.MGLStats.QualityRetries
			for a, c := range pc.MGLStats.CommitAttempts {
				res.MGLStats.CommitAttempts[a] += c
			}
			res.MGLStats.Batches += pc.MGLStats.Batches
			res.MGLStats.SplitBatches += pc.MGLStats.SplitBatches
			res.MGLStats.SpeculativeRows += pc.MGLStats.SpeculativeRows
			if pc.MGLStats.Workers > res.MGLStats.Workers {
				res.MGLStats.Workers = pc.MGLStats.Workers
			}
			res.MaxDispStats.Groups += pc.MaxDispStats.Groups
			res.MaxDispStats.Swapped += pc.MaxDispStats.Swapped
			res.MaxDispStats.CostBefore += pc.MaxDispStats.CostBefore
			res.MaxDispStats.CostAfter += pc.MaxDispStats.CostAfter
			res.RefineReport.Nodes += pc.RefineReport.Nodes
			res.RefineReport.Arcs += pc.RefineReport.Arcs
			res.RefineReport.Pivots += pc.RefineReport.Pivots
			res.RefineReport.Edges += pc.RefineReport.Edges
			res.RefineReport.Moved += pc.RefineReport.Moved
			res.RefineReport.SolveNs += pc.RefineReport.SolveNs
		}
		res.Shards = append(res.Shards, out)
	}
	return perr
}

// Evaluate scores an already-legalized design (used for baselines),
// with hpwlBefore measured at GP positions by the caller.
func Evaluate(d *model.Design, hpwlBefore int64) Result {
	var res Result
	res.HPWLBefore = hpwlBefore
	res.HPWLAfter = eval.HPWL(d)
	res.Metrics = eval.Measure(d)
	res.Violations = route.NewChecker(d).Count()
	res.Score = eval.Score(eval.ScoreInput{
		Metrics:        res.Metrics,
		HPWLBefore:     res.HPWLBefore,
		HPWLAfter:      res.HPWLAfter,
		PinViolations:  res.Violations.Pin(),
		EdgeViolations: res.Violations.EdgeSpacing,
		Cells:          d.MovableCount(),
	})
	return res
}
