package baseline

import (
	"mclegal/internal/mgl"
	"mclegal/internal/model"
	"mclegal/internal/refine"
	"mclegal/internal/seg"
)

// MLL legalizes d with the DAC'16 multi-row local legalization
// baseline: window insertion whose displacement curves measure from
// current positions (types A/B only). The MGL options that shape the
// result are set explicitly, at the values that were MGL's defaults
// when the baseline columns were last measured, so that a change of
// MGL's defaults does not move the baselines of Tables 1 and 2.
func MLL(d *model.Design, workers int) error {
	_, err := mgl.Legalize(d, mgl.Options{
		Workers:         workers,
		CostFromCurrent: true,
		MaxChain:        48,
		BatchCap:        32,
		PruneSlackRows:  8,
		QualityGrowths:  2,
	})
	return err
}

// MLLImp is MLL followed by the optimal fixed-row-and-order refinement
// with a total-displacement objective — the "[12]-Imp" column of
// Table 2.
func MLLImp(d *model.Design, workers int) error {
	if err := MLL(d, workers); err != nil {
		return err
	}
	return refineUniform(d)
}

// AbacusExt legalizes d with the order-preserving greedy standing in
// for Wang et al. [7] (Abacus extended to mixed heights).
func AbacusExt(d *model.Design) error {
	grid, err := seg.Build(d)
	if err != nil {
		return err
	}
	return orderedGreedy(d, grid)
}

// ChenLike legalizes d with an order-preserving assignment followed by
// the globally optimal fixed-order MCF pass, standing in for the
// QP/LCP legalizer of Chen et al. [9].
func ChenLike(d *model.Design) error {
	if err := AbacusExt(d); err != nil {
		return err
	}
	return refineUniform(d)
}

// Champion is the ICCAD 2017 contest champion stand-in used in
// Table 1: the MLL window legalizer, which grows its windows after a
// failed insertion and for quality exactly as ours does, run entirely
// unaware of routability — no edge-spacing inflation, no pin-aware row
// or x steering, no post-refinement — so its solutions carry both the
// larger displacement and the violation profile Table 1 reports for
// the contest binary.
func Champion(d *model.Design, workers int) error {
	// Spacing-blind: run against a copy of the tech without the
	// edge-spacing table, then restore it for evaluation.
	saved := d.Tech.EdgeSpacing
	d.Tech.EdgeSpacing = nil
	err := MLL(d, workers)
	d.Tech.EdgeSpacing = saved
	return err
}

func refineUniform(d *model.Design) error {
	grid, err := seg.Build(d)
	if err != nil {
		return err
	}
	_, err = refine.Optimize(d, grid, refine.Options{Weights: refine.WeightUniform})
	return err
}
