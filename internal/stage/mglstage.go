package stage

import (
	"context"

	"mclegal/internal/mgl"
)

// Stage names of the built-in pipeline stages, usable as timing and
// artifact keys.
const (
	NameMGL     = "mgl"
	NameMaxDisp = "maxdisp"
	NameRefine  = "refine"
)

// NewMGL returns the multi-row global legalization stage (paper
// Sections 3.1 and 3.5). The pipeline's routability rules, when
// present, override opt.Rules.
func NewMGL(opt mgl.Options) *MGLStage { return &MGLStage{Opt: opt} }

// MGLStage is the concrete MGL stage; Opt is exposed so composers and
// tests can inspect the options the stage will run with.
type MGLStage struct{ Opt mgl.Options }

func (s *MGLStage) Name() string { return NameMGL }

// Critical marks MGL as unskippable: every later stage refines an
// already legal placement, so without MGL (or its fallback) the
// pipeline cannot end legal.
func (s *MGLStage) Critical() bool { return true }

// Run legalizes the context's design in place and deposits the run's
// stats as the stage artifact.
//
//mclegal:writes design.xy,hotcells,occupancy,stagectx MGL commits legal positions and deposits its stats; the hot view and occupancy index are per-run scratch
func (s *MGLStage) Run(ctx context.Context, pc *PipelineContext) error {
	opt := s.Opt
	if pc.Rules != nil {
		opt.Rules = pc.Rules
	}
	if opt.Faults == nil {
		opt.Faults = pc.Faults
	}
	l := mgl.New(pc.Design, pc.Grid, opt)
	err := l.RunContext(ctx)
	// Keep partial stats on failure or cancellation: on an ungated run
	// they tell the operator how far legalization got. A gate rolls
	// them back with the rest of the context, but captures the counters
	// into its GateReport first, so the information survives either way.
	pc.MGLStats = l.Stats
	return err
}

func (s *MGLStage) Counters(pc *PipelineContext) map[string]int64 {
	st := &pc.MGLStats
	return map[string]int64{
		"cells_placed":         int64(st.Placed),
		"window_retries":       int64(st.WindowRetries),
		"quality_retries":      int64(st.QualityRetries),
		"commit_attempt_0":     int64(st.CommitAttempts[0]),
		"commit_attempt_1":     int64(st.CommitAttempts[1]),
		"commit_attempt_2":     int64(st.CommitAttempts[2]),
		"commit_attempt_3plus": int64(st.CommitAttempts[3]),
		"batches":              int64(st.Batches),
		"split_batches":        int64(st.SplitBatches),
		"speculative_rows":     int64(st.SpeculativeRows),
		"eval_workers":         int64(st.Workers),
	}
}
