package mgl

import (
	"runtime"

	"mclegal/internal/faults"
	"mclegal/internal/model"
)

// Rules is the routability hook MGL consults while inserting cells.
// The route package provides the paper's Section 3.4 implementation; a
// nil Rules disables all routability handling.
type Rules interface {
	// RowForbidden reports whether placing a cell of the given type
	// with its bottom edge on row y would short a pin against a
	// horizontal P/G rail (such insertion rows are skipped entirely).
	RowForbidden(ct model.CellTypeID, y int) bool
	// XForbidden reports whether placing the cell at site x, bottom
	// row y overlaps a signal pin with a vertical P/G stripe. MGL
	// slides to the nearest clean site.
	XForbidden(ct model.CellTypeID, x, y int) bool
	// IOPenalty returns an additive DBU cost for placing the cell at
	// (x,y), used to penalize positions whose pins overlap IO pins.
	IOPenalty(ct model.CellTypeID, x, y int) int64
}

// OrderPolicy selects the order in which MGL legalizes cells.
type OrderPolicy int

const (
	// TallestFirst orders by decreasing height, then by GP x, then ID.
	// Tall cells have the fewest candidate positions, so placing them
	// early avoids late large displacements. This is the default.
	TallestFirst OrderPolicy = iota
	// GPLeftToRight orders by GP x only (Abacus-style sweeps).
	GPLeftToRight
	// WidestAreaFirst orders by decreasing cell area.
	WidestAreaFirst
)

// Options configures a Legalizer.
type Options struct {
	// Order is the cell legalization order policy.
	Order OrderPolicy
	// WindowW and WindowH are the initial window half-extents in sites
	// and rows. Zero means automatic (derived from the cell size).
	WindowW, WindowH int
	// MaxChain bounds the number of movable cells per push chain (each
	// side of an insertion point has one). Membership is breadth-first
	// from the seeds, the nearest local cell on that side in each of the
	// target's rows, which always belong: each member's neighbours away
	// from the target are visited in turn, bottom row first, and a local
	// cell found when the chain already holds MaxChain cells becomes a
	// barrier at its current x. The full-core window bounds the chain by
	// the core width in sites instead. Zero means 48.
	MaxChain int
	// Workers is the number of parallel evaluation threads (Section
	// 3.5). Zero means GOMAXPROCS. Workers only bounds concurrency:
	// batch composition and commit order are worker-independent, so
	// the result is byte-identical for every worker count. A batch of
	// fewer windows than Workers is evaluated one candidate row per task.
	Workers int
	// BatchCap is the capacity of the scheduler's processing list L_p.
	// It shapes batch composition and therefore the (deterministic)
	// result; the default is a constant — not derived from Workers —
	// so results do not depend on the machine's core count. Zero
	// means 32.
	BatchCap int
	// Rules is the optional routability hook.
	Rules Rules
	// QualityGrowths bounds how many times a window is grown *after* a
	// feasible insertion was already found, chasing a cheaper position
	// that might lie outside: growth continues while the best in-window
	// cost exceeds the cost of reaching the window edge (so a better
	// slot could exist beyond it). 0 means 2; negative disables
	// quality-driven growth (first feasible window wins).
	QualityGrowths int
	// PruneSlackRows controls the row-pruning heuristic: candidate rows
	// are scanned outward from the GP row, and scanning stops once the
	// y-displacement cost alone exceeds the best found cost plus this
	// many row heights. The slack absorbs the (rare) negative
	// incremental costs of pushing displaced cells back toward their GP
	// positions. 0 means 8; negative disables pruning (exhaustive
	// evaluation, the paper's literal procedure).
	PruneSlackRows int
	// DebugAfterBatch, when set, is called after each batch commit
	// with the cells actually placed by the batch; returning false
	// aborts the run. Intended for tests and debugging (e.g.
	// cancelling a context mid-run at a deterministic point). The
	// slice is reused between batches: copy it if you keep it.
	DebugAfterBatch func(placed []model.CellID) bool
	// Faults is the optional fault-injection harness; armed points
	// (faults.MGLWorkerPanic, faults.MGLInsertOutside) force failures
	// at deterministic spots. Nil disables injection.
	Faults *faults.Injector
	// CostFromCurrent makes local-cell displacement curves measure from
	// the cells' *current* positions instead of their GP positions.
	// This reproduces the MLL baseline (reference [12]) whose curves
	// are only of types A and B; costs then accumulate over successive
	// insertions exactly as paper Figure 3 illustrates. Leave false for
	// MGL.
	CostFromCurrent bool
}

func (o Options) withDefaults() Options {
	if o.MaxChain <= 0 {
		o.MaxChain = 48
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchCap <= 0 {
		o.BatchCap = 32
	}
	if o.PruneSlackRows == 0 {
		o.PruneSlackRows = 8
	}
	if o.QualityGrowths == 0 {
		o.QualityGrowths = 2
	}
	return o
}
