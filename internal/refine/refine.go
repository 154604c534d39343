// Package refine implements the paper's fixed-row and fixed-order
// optimization (Section 3.3): with every cell pinned to its rows and
// every row's cell order frozen, the legal x-coordinates minimizing a
// weighted sum of average and maximum displacement are found by solving
// the dual min-cost-flow of LP (4)/(8).
//
// The flow network follows the paper's compact construction: one vertex
// per cell plus the auxiliary v_z (and v_p, v_n when the
// maximum-displacement extension is enabled); the optimal node
// potentials are directly the legal x-coordinates.
package refine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"mclegal/internal/faults"
	"mclegal/internal/freelist"
	"mclegal/internal/geom"
	"mclegal/internal/mcf"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// WeightMode selects the per-cell displacement weights n_i.
type WeightMode int

const (
	// WeightHeightAverage sets n_i proportional to 1/|C_h|, matching
	// the contest metric S_am of Eq. (2). This is the paper's setting.
	WeightHeightAverage WeightMode = iota
	// WeightUniform sets n_i = 1, optimizing total displacement (the
	// Table 2 configuration and the setting of reference [13]).
	WeightUniform
)

// Options configures the refinement.
type Options struct {
	// Weights selects n_i.
	Weights WeightMode
	// MaxDispWeight is n_0, the weight of the maximum-displacement
	// terms; 0 disables the extension (pure total/average objective).
	MaxDispWeight int64
	// Ranges optionally narrows the feasible x-range of a cell (left
	// edge, in sites) below its segment span; the routability stage
	// uses it to keep pins off rails (Section 3.4, C_L = C_R = C). The
	// returned range is widened if needed to include the current x.
	Ranges func(id model.CellID) (lo, hi int, ok bool)
	// Faults is the optional fault-injection harness; the armed
	// faults.RefineInfeasible point reports min-cost-flow
	// infeasibility instead of solving. Nil disables injection.
	Faults *faults.Injector
	// Solver, when non-nil, is the simplex solver the refinement runs
	// on. Every solve starts cold, so the result does not depend on
	// what the Solver solved before. Nil solves on the solver of a
	// pooled workspace, which already keeps its scratch arrays from one
	// refinement to the next.
	Solver *mcf.Solver
}

// Report describes the solved flow problem.
type Report struct {
	// Nodes and Arcs are the flow-network sizes (paper: m+1 vertices,
	// 2m+|C_L|+|C_R|+|E| edges for the base formulation).
	Nodes, Arcs int
	// Pivots is the simplex pivot count.
	Pivots int
	// Edges is |E|, the number of neighbor constraints.
	Edges int
	// Moved is the number of cells whose x changed.
	Moved int
	// SolveNs is wall-clock nanoseconds inside the simplex solve
	// (observability only — never feeds back into placement).
	SolveNs int64
}

// Optimize shifts cells horizontally (rows and order unchanged) to the
// optimum of the configured objective. The design must be legal on
// entry and stays legal on success.
//
//mclegal:writes design.xy refinement rewrites x coordinates from the completed flow solution
func Optimize(d *model.Design, grid *seg.Grid, opt Options) (Report, error) {
	return OptimizeContext(context.Background(), d, grid, opt)
}

// edge is one neighbor constraint x_j - x_i >= gap between movable
// cells i and j (indices into the run's movable list).
type edge struct {
	i, j int
	gap  int64
}

// slot is movable cell k's place in row r, at x.
type slot struct{ r, x, k int }

// workspace is one refinement's working storage: the flow network, the
// simplex solver used when Options.Solver is nil, and the per-cell
// arrays. Runs take it from workspacePool, so a run reuses what an
// earlier one grew. Every array is resized and written before it is
// read, and nothing a run returns aliases it.
type workspace struct {
	g         mcf.Graph
	sv        mcf.Solver
	ids       []model.CellID
	weights   []int64
	lo, hi    []int64
	dy        []int64
	perHeight []int // movable cells per height
	slots     []slot
	edges     []edge
}

// workspacePool hands out workspaces to concurrent refinements.
var workspacePool freelist.List[workspace]

// resize returns s with length n, reallocating only when n outgrows its
// capacity. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// OptimizeContext is Optimize under a context. Cancellation is checked
// before the network is built and again before the simplex solve; cell
// positions are only written after a completed solve, so a cancelled
// run leaves the design exactly as it was (legal) on entry.
//
//mclegal:writes design.xy refinement rewrites x coordinates from the completed flow solution
func OptimizeContext(ctx context.Context, d *model.Design, grid *seg.Grid, opt Options) (Report, error) {
	var rep Report
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	ws := workspacePool.Get()
	defer workspacePool.Put(ws)
	// Movable cell indexing.
	ids := ws.ids[:0]
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, model.CellID(i))
		}
	}
	ws.ids = ids
	m := len(ids)
	if m == 0 {
		return rep, nil
	}

	// Weights n_i.
	weights := resize(ws.weights, m)
	ws.weights = weights
	switch opt.Weights {
	case WeightUniform:
		for k := range weights {
			weights[k] = 1
		}
	default:
		counts := ws.perHeight[:0]
		for _, id := range ids {
			h := d.Types[d.Cells[id].Type].Height
			for len(counts) <= h {
				counts = append(counts, 0)
			}
			counts[h]++
		}
		ws.perHeight = counts
		for k, id := range ids {
			h := d.Types[d.Cells[id].Type].Height
			w := int64(4*m) / int64(counts[h])
			if w < 1 {
				w = 1
			}
			weights[k] = w
		}
	}

	// Neighbor constraints E: consecutive movable cells per row, with
	// the gap inflated by the edge-spacing rule (the paper's "filler"
	// treatment). One sort of every cell's (row, x, index) slots orders
	// all rows at once.
	slots := ws.slots[:0]
	for k, id := range ids {
		c := &d.Cells[id]
		for r := c.Y; r < c.Y+d.Types[c.Type].Height; r++ {
			slots = append(slots, slot{r: r, x: c.X, k: k})
		}
	}
	ws.slots = slots
	slices.SortFunc(slots, func(a, b slot) int {
		if a.r != b.r {
			return cmp.Compare(a.r, b.r)
		}
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		return cmp.Compare(a.k, b.k)
	})
	edges := ws.edges[:0]
	for p := 1; p < len(slots); p++ {
		r, i, j := slots[p].r, slots[p-1].k, slots[p].k
		if slots[p-1].r != r {
			continue
		}
		ci, cj := &d.Cells[ids[i]], &d.Cells[ids[j]]
		// Only cells in the same segment constrain each other; a
		// blockage between them is encoded in their ranges.
		si, okI := grid.At(r, ci.X)
		sj, okJ := grid.At(r, cj.X)
		if !okI || !okJ || si.ID != sj.ID {
			continue
		}
		ti, tj := &d.Types[ci.Type], &d.Types[cj.Type]
		gap := int64(ti.Width) + int64(d.Tech.Spacing(ti.EdgeR, tj.EdgeL))
		edges = append(edges, edge{i: i, j: j, gap: gap})
	}
	// A pair of multi-row cells meets once per shared row: order the
	// constraints by (i, j), largest gap first, and keep the first of
	// each pair, so the list is sorted by (i, j) and deterministic.
	slices.SortFunc(edges, func(a, b edge) int {
		if a.i != b.i {
			return cmp.Compare(a.i, b.i)
		}
		if a.j != b.j {
			return cmp.Compare(a.j, b.j)
		}
		return cmp.Compare(b.gap, a.gap)
	})
	edges = slices.CompactFunc(edges, func(a, b edge) bool { return a.i == b.i && a.j == b.j })
	ws.edges = edges
	rep.Edges = len(edges)

	// Feasible ranges [l_i, r_i] for the left edge, in sites.
	lo, hi := resize(ws.lo, m), resize(ws.hi, m)
	ws.lo, ws.hi = lo, hi
	for k, id := range ids {
		c := &d.Cells[id]
		ct := &d.Types[c.Type]
		span, ok := grid.SpanInterval(c.Fence, c.X, c.Y, ct.Height)
		if !ok {
			return rep, fmt.Errorf("refine: cell %d not inside fence segments", id)
		}
		l, r := int64(span.Lo), int64(span.Hi-ct.Width)
		if opt.Ranges != nil {
			//mclegal:writeset the only wired provider is route.Rules.RangeProvider, a per-cell interval lookup whose rail-memo writes are declared ephemeral on the memo field
			if rl, rh, ok := opt.Ranges(id); ok {
				if int64(rl) > l {
					l = int64(rl)
				}
				if int64(rh) < r {
					r = int64(rh)
				}
			}
		}
		// Never exclude the current (legal) position: guarantees
		// feasibility of the flow problem.
		if int64(c.X) < l {
			l = int64(c.X)
		}
		if int64(c.X) > r {
			r = int64(c.X)
		}
		lo[k], hi[k] = l, r
	}

	// y-displacements in site units for the extension.
	useExt := opt.MaxDispWeight > 0
	var dy []int64
	var maxDy int64
	if useExt {
		dy = resize(ws.dy, m)
		ws.dy = dy
		for k, id := range ids {
			c := &d.Cells[id]
			dyDBU := int64(geom.Abs(c.Y-c.GY)) * int64(d.Tech.RowH)
			dy[k] = dyDBU / int64(d.Tech.SiteW)
			if dy[k] > maxDy {
				maxDy = dy[k]
			}
		}
	}

	// Uncapacitated arcs get a bound no optimal basic solution can
	// reach: the total capacity of all capacitated arcs plus slack.
	var capSum int64
	for _, w := range weights {
		capSum += 2 * w
	}
	capSum += 2*opt.MaxDispWeight + 16

	// Build the network.
	nNodes := m + 1
	z := m
	p, nn := -1, -1
	if useExt {
		p, nn = m+1, m+2
		nNodes = m + 3
	}
	g := &ws.g
	g.Reset(nNodes)
	for k := range ids {
		gx := int64(d.Cells[ids[k]].GX)
		g.AddArc(k, z, weights[k], gx)  // f_i^+
		g.AddArc(z, k, weights[k], -gx) // f_i^-
		g.AddArc(z, k, capSum, -lo[k])  // f_i^l
		g.AddArc(k, z, capSum, hi[k])   // f_i^r
	}
	for _, e := range edges {
		g.AddArc(e.i, e.j, capSum, -e.gap) // f_ij
	}
	if useExt {
		for k := range ids {
			gx := int64(d.Cells[ids[k]].GX)
			g.AddArc(k, p, capSum, gx-dy[k])   // f_i^p
			g.AddArc(nn, k, capSum, -gx-dy[k]) // f_i^n
		}
		g.AddArc(p, z, opt.MaxDispWeight, maxDy)  // f^p
		g.AddArc(z, nn, opt.MaxDispWeight, maxDy) // f^n
	}
	rep.Nodes = g.NumNodes()
	rep.Arcs = g.NumArcs()

	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if opt.Faults.ShouldFire(faults.RefineInfeasible) {
		return rep, fmt.Errorf("refine: injected: %w", mcf.ErrInfeasible)
	}
	sv := opt.Solver
	if sv == nil {
		sv = &ws.sv
	}
	//mclegal:wallclock solve timing feeds Report.SolveNs (observability), never placement
	solveStart := time.Now()
	res, err := sv.Solve(ctx, g)
	//mclegal:wallclock solve timing feeds Report.SolveNs (observability), never placement
	rep.SolveNs = time.Since(solveStart).Nanoseconds()
	if err != nil {
		return rep, fmt.Errorf("refine: %w", err)
	}
	rep.Pivots = res.Pivots

	// Node potentials are the legal x-coordinates.
	piz := res.Pi[z]
	for k, id := range ids {
		x := res.Pi[k] - piz
		if x < lo[k] || x > hi[k] {
			return rep, fmt.Errorf("refine: potential %d outside range [%d,%d] for cell %d", x, lo[k], hi[k], id)
		}
		if int(x) != d.Cells[id].X {
			d.Cells[id].X = int(x)
			rep.Moved++
		}
	}
	for _, e := range edges {
		xi, xj := int64(d.Cells[ids[e.i]].X), int64(d.Cells[ids[e.j]].X)
		if xi+e.gap > xj {
			return rep, fmt.Errorf("refine: order constraint broken between %d and %d", ids[e.i], ids[e.j])
		}
	}
	return rep, nil
}
