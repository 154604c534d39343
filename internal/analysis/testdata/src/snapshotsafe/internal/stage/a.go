// Fixture for the snapshotsafe analyzer: a //mclegal:restores gate, a
// covered stage, an uncovered stagectx writer, a stage covered by a
// //mclegal:ephemeral declaration, a suppressed stage, and declaration
// rot (bare justification, unknown location).
package stage

import (
	"snapshotsafe/internal/model"
	"snapshotsafe/internal/seg"
)

// PipelineContext is the state shared by the stages of one run; the
// vocabulary maps every field to stagectx.
type PipelineContext struct {
	Design *model.Design
	Grid   *seg.Grid
	Stats  int
}

// Stage is one pass of the fixture pipeline.
type Stage interface {
	Name() string
	Run(pc *PipelineContext) error
}

// runGated snapshots positions, runs the stage, and rolls back on
// failure.
//
//mclegal:restores design.xy the rollback restores the XY snapshot
func runGated(s Stage, pc *PipelineContext) error {
	snap := snapshot(pc.Design)
	if err := s.Run(pc); err != nil {
		restore(pc.Design, snap)
		return err
	}
	return nil
}

// bareGate restores everything but never says why.
//
//mclegal:restores design.xy,design.meta,stagectx,hotcells,grid,occupancy
func bareGate(s Stage, pc *PipelineContext) error { // want "missing a justification"
	return s.Run(pc)
}

// typoGate names a location the vocabulary does not define.
//
//mclegal:restores design.zz typo for design.xy
func typoGate(s Stage, pc *PipelineContext) error { // want "unknown location"
	return s.Run(pc)
}

func snapshot(d *model.Design) []int {
	out := make([]int, len(d.Cells))
	for i := range d.Cells {
		out[i] = d.Cells[i].X
	}
	return out
}

func restore(d *model.Design, snap []int) {
	for i := range snap {
		d.Cells[i].X = snap[i]
	}
}

// GoodStage writes only coordinates: covered by runGated's restores.
type GoodStage struct{}

func (s *GoodStage) Name() string { return "good" }

func (s *GoodStage) Run(pc *PipelineContext) error {
	pc.Design.Cells[0].X = 3
	return nil
}

// BadStage also writes a pipeline-context artifact, which no rollback
// restores.
type BadStage struct{}

func (s *BadStage) Name() string { return "bad" }

func (s *BadStage) Run(pc *PipelineContext) error { // want "does not restore"
	pc.Design.Cells[0].X = 3
	pc.Stats++
	return nil
}

// ScratchStage writes the hotcells mirror, which model declares
// ephemeral with a justification: covered.
type ScratchStage struct {
	hot *model.HotCells
}

func (s *ScratchStage) Name() string { return "scratch" }

func (s *ScratchStage) Run(pc *PipelineContext) error {
	s.hot.X[0] = 7
	pc.Design.Cells[0].Y = 1
	return nil
}

// WaivedStage is BadStage with a justified suppression.
type WaivedStage struct{}

func (s *WaivedStage) Name() string { return "waived" }

//mclegal:snapshotsafe the fixture waives this stage to prove the directive works
func (s *WaivedStage) Run(pc *PipelineContext) error {
	pc.Stats++
	return nil
}
