// Package maxdisp implements the paper's maximum-displacement
// optimization (Section 3.2): for every (cell type x fence region)
// group, a min-cost perfect bipartite matching re-assigns the group's
// cells to the multiset of their current positions. Because only
// same-type cells exchange positions, the geometry of the placement is
// unchanged and no new violation of any kind can appear.
//
// The matching cost is φ(δ) of Eq. (3): linear up to the tolerance
// threshold δ0 (preserving the average displacement) and δ^5/δ0^4
// beyond it (crushing outliers).
package maxdisp

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"mclegal/internal/faults"
	"mclegal/internal/geom"
	"mclegal/internal/matching"
	"mclegal/internal/model"
)

// Options configures the optimization.
type Options struct {
	// Delta0Rows is the tolerable maximum displacement threshold δ0 of
	// Eq. (3), in row-height units. Zero means 10 rows.
	Delta0Rows float64
	// MaxGroup caps the matching size; larger groups are split into
	// spatially coherent chunks (the paper is silent on group-size
	// handling; exact matching is cubic). Zero means 400. The matching
	// keeps the chunk's n×n cost matrix: 8n² bytes, 1.2 MiB at 400.
	MaxGroup int
	// Faults is the optional fault-injection harness; the armed
	// faults.MatchingFail point fails the optimization before any
	// group is solved. Nil disables injection.
	Faults *faults.Injector
}

func (o Options) withDefaults() Options {
	if o.Delta0Rows <= 0 {
		o.Delta0Rows = 10
	}
	if o.MaxGroup <= 0 {
		o.MaxGroup = 400
	}
	return o
}

// Stats reports the work done by Optimize.
type Stats struct {
	// Groups is the number of matchings solved.
	Groups int
	// Swapped is the number of cells whose position changed.
	Swapped int
	// CostBefore and CostAfter are the summed φ costs over all groups.
	CostBefore, CostAfter int64
}

// Phi evaluates Eq. (3) in integer DBU with δ0 given in DBU, returning
// a clamped int64 suitable as a matching cost: the identity up to δ0,
// δ^5/δ0^4 beyond it.
func Phi(deltaDBU, delta0DBU int64) int64 {
	if deltaDBU <= delta0DBU {
		return deltaDBU
	}
	d := float64(deltaDBU)
	d0 := float64(delta0DBU)
	v := d * d * d * d * d / (d0 * d0 * d0 * d0)
	const clamp = 1e16
	if v > clamp || math.IsInf(v, 1) {
		return int64(clamp)
	}
	return int64(v)
}

// Optimize runs the matching for every (type, fence) group of movable
// cells and applies the optimal assignment.
//
//mclegal:writes design.xy the optimal assignment permutes cell positions within each matching group
func Optimize(d *model.Design, opt Options) Stats {
	st, _ := OptimizeContext(context.Background(), d, opt)
	return st
}

// OptimizeContext is Optimize under a context: cancellation is checked
// between group matchings (each already-applied matching leaves the
// design legal, so an aborted run is always consistent) and the
// partial Stats are returned alongside ctx.Err().
//
//mclegal:writes design.xy the optimal assignment permutes cell positions within each matching group
func OptimizeContext(ctx context.Context, d *model.Design, opt Options) (Stats, error) {
	opt = opt.withDefaults()
	var st Stats
	if err := opt.Faults.Err(faults.MatchingFail); err != nil {
		return st, fmt.Errorf("maxdisp: matching failed: %w", err)
	}
	delta0 := int64(opt.Delta0Rows * float64(d.Tech.RowH))

	ws := workspacePool.Get().(*workspace)
	defer workspacePool.Put(ws)
	// One sort of the movables by (type, fence, Y, X, ID) lays out the
	// groups as runs in the order they are solved, each ordered by
	// current (Y, X) for the chunking below. A group's swaps move only
	// its own cells, so sorting every group up front orders each one as
	// sorting it just before its matching would.
	ids := ws.ids[:0]
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ids = append(ids, model.CellID(i))
		}
	}
	ws.ids = ids
	slices.SortFunc(ids, func(a, b model.CellID) int {
		ca, cb := &d.Cells[a], &d.Cells[b]
		switch {
		case ca.Type != cb.Type:
			return cmp.Compare(ca.Type, cb.Type)
		case ca.Fence != cb.Fence:
			return cmp.Compare(ca.Fence, cb.Fence)
		case ca.Y != cb.Y:
			return cmp.Compare(ca.Y, cb.Y)
		case ca.X != cb.X:
			return cmp.Compare(ca.X, cb.X)
		}
		return cmp.Compare(a, b)
	})

	for next := 0; next < len(ids); {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		first := &d.Cells[ids[next]]
		end := next + 1
		for end < len(ids) && d.Cells[ids[end]].Type == first.Type && d.Cells[ids[end]].Fence == first.Fence {
			end++
		}
		group := ids[next:end]
		next = end
		if len(group) < 2 {
			continue
		}
		// Spatially coherent chunks when the group exceeds the cap.
		for lo := 0; lo < len(group); lo += opt.MaxGroup {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			hi := lo + opt.MaxGroup
			if hi > len(group) {
				hi = len(group)
			}
			if hi-lo < 2 {
				continue
			}
			st.Groups++
			if err := optimizeGroup(ctx, d, ws, group[lo:hi], delta0, &st); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// workspace is one optimization's working storage: the matching solver
// with its cost matrix, the sorted movables and one group's positions.
// Runs take it from workspacePool, so a run reuses what an earlier one
// grew.
type workspace struct {
	sv  matching.Solver
	ids []model.CellID
	pos []geom.Pt
}

// workspacePool hands out workspaces to concurrent optimizations.
var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// optimizeGroup re-assigns one group of interchangeable cells to the
// multiset of their positions. The ctx flows into the assignment
// solver, where a large group's O(n^3) solve is the bulk of the
// stage's work.
func optimizeGroup(ctx context.Context, d *model.Design, ws *workspace, ids []model.CellID, delta0 int64, st *Stats) error {
	n := len(ids)
	if cap(ws.pos) < n {
		ws.pos = make([]geom.Pt, n)
	}
	pos := ws.pos[:n]
	for i, id := range ids {
		pos[i] = geom.Pt{X: d.Cells[id].X, Y: d.Cells[id].Y}
	}
	siteW, rowH := int64(d.Tech.SiteW), int64(d.Tech.RowH)
	cost := func(i, j int) int64 {
		c := &d.Cells[ids[i]]
		dd := int64(geom.Abs(pos[j].X-c.GX))*siteW + int64(geom.Abs(pos[j].Y-c.GY))*rowH
		return Phi(dd, delta0)
	}
	var before int64
	for i := 0; i < n; i++ {
		before += cost(i, i)
	}
	assign, after, ok, err := ws.sv.Solve(ctx, n, cost)
	if err != nil {
		return err
	}
	if !ok || after >= before {
		st.CostBefore += before
		st.CostAfter += before
		return nil
	}
	st.CostBefore += before
	st.CostAfter += after
	for i, j := range assign {
		if j == i {
			continue
		}
		c := &d.Cells[ids[i]]
		if c.X != pos[j].X || c.Y != pos[j].Y {
			c.X, c.Y = pos[j].X, pos[j].Y
			st.Swapped++
		}
	}
	return nil
}
