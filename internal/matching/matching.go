// Package matching solves min-cost perfect bipartite matching, the
// engine behind the paper's maximum-displacement optimization
// (Section 3.2): cells of one type inside one fence region are
// re-assigned to the multiset of their current positions so that the
// total φ-cost is minimized.
//
// The solver is the classic successive-shortest-augmenting-path
// (Hungarian/Jonker-Volgenant) algorithm with potentials, an instance of
// the min-cost-flow formulation the paper references [20], specialized
// to assignment problems for an O(n^3) bound.
//
// The one entrypoint is (*Solver).Solve. A Solver owns all scratch
// arrays (u/v/p/way/minv/used) and is reused across instances, so the
// per-(type×fence) groups of one design sweep share its storage.
package matching

import (
	"context"
	"math"
)

// Forbidden marks a pair that must not be matched. It is large enough
// to dominate any realistic total yet leaves headroom against overflow
// when n Forbidden entries are summed.
const Forbidden = int64(math.MaxInt64) / (1 << 20)

const inf = int64(math.MaxInt64) / 4

// Solver is a reusable assignment solver. The zero value is ready to
// use. A Solver is not safe for concurrent use.
//
// The assign slice returned by Solve aliases solver-owned storage and
// is valid until the next call on the same Solver.
type Solver struct {
	// 1-based arrays in the classic formulation; index 0 is virtual.
	u, v   []int64 // dual potentials (rows, columns)
	p      []int   // p[j]: row matched to column j (0 = free)
	way    []int   // way[j]: previous column on the shortest path
	minv   []int64 // per-column min reduced cost this phase
	used   []bool  // columns on the alternating tree this phase
	assign []int
}

// grow sizes the scratch arrays for an n-row instance, reallocating
// only when n outgrows their capacity.
func (sv *Solver) grow(n int) {
	nn := n + 1
	if cap(sv.u) < nn {
		sv.u = make([]int64, nn)
		sv.v = make([]int64, nn)
		sv.p = make([]int, nn)
		sv.way = make([]int, nn)
		sv.minv = make([]int64, nn)
		sv.used = make([]bool, nn)
	} else {
		sv.u = sv.u[:nn]
		sv.v = sv.v[:nn]
		sv.p = sv.p[:nn]
		sv.way = sv.way[:nn]
		sv.minv = sv.minv[:nn]
		sv.used = sv.used[:nn]
	}
	if cap(sv.assign) < n {
		sv.assign = make([]int, n)
	} else {
		sv.assign = sv.assign[:n]
	}
}

// Solve computes a minimum-cost perfect matching between n "rows"
// (cells) and n "columns" (positions). cost(i,j) is the cost of
// assigning row i to column j; return Forbidden to rule a pair out.
//
// It returns assign with assign[i] = column matched to row i and the
// total cost. ok is false if no perfect matching avoiding Forbidden
// pairs exists. ctx is polled once per augmented row (each row is one
// O(n^2) shortest-path phase, the natural preemption granularity), and
// a non-nil err — always ctx.Err() — means the solve was abandoned,
// not that no matching exists.
func (sv *Solver) Solve(ctx context.Context, n int, cost func(i, j int) int64) (assign []int, total int64, ok bool, err error) {
	if n == 0 {
		return nil, 0, true, nil
	}
	sv.grow(n)
	for j := range sv.u {
		sv.u[j] = 0
		sv.v[j] = 0
	}
	for j := range sv.p {
		sv.p[j] = 0
		sv.way[j] = 0
	}
	for i := 1; i <= n; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, false, cerr
		}
		sv.minv[0] = 0
		for j := 1; j <= n; j++ {
			sv.minv[j] = inf
		}
		for j := range sv.used {
			sv.used[j] = false
		}
		if !sv.augmentRow(i, n, cost) {
			return nil, 0, false, nil // no augmenting path
		}
	}
	for j := 1; j <= n; j++ {
		sv.assign[sv.p[j]-1] = j - 1
		c := cost(sv.p[j]-1, j-1) //mclegal:writeset cost is a caller-supplied pure pricing closure; it receives indices by value and no resident state
		if c >= Forbidden {
			return nil, 0, false, nil
		}
		total += c
	}
	return sv.assign[:n:n], total, true, nil
}

// augmentRow runs one shortest-path phase: it grows the alternating
// tree from row i until a free column is reached, updating the dual
// potentials, then flips the matching along the path. It reports false
// when no augmenting path exists.
//
//mclegal:hotpath matching augment phase; TestSolverReuseZeroAlloc pins reused Solvers to 0 allocs/op
func (sv *Solver) augmentRow(i, n int, cost func(i, j int) int64) bool {
	sv.p[0] = i
	j0 := 0
	for {
		sv.used[j0] = true
		i0 := sv.p[j0]
		var delta int64 = inf
		j1 := -1
		for j := 1; j <= n; j++ {
			if sv.used[j] {
				continue
			}
			//mclegal:alloc cost is a caller-supplied closure; its own allocation behaviour is the caller's
			cur := cost(i0-1, j-1) - sv.u[i0] - sv.v[j] //mclegal:writeset cost is a caller-supplied pure pricing closure; it receives indices by value and no resident state
			if cur < sv.minv[j] {
				sv.minv[j] = cur
				sv.way[j] = j0
			}
			if sv.minv[j] < delta {
				delta = sv.minv[j]
				j1 = j
			}
		}
		if j1 < 0 || delta >= inf/2 {
			return false
		}
		for j := 0; j <= n; j++ {
			if sv.used[j] {
				sv.u[sv.p[j]] += delta
				sv.v[j] -= delta
			} else {
				sv.minv[j] -= delta
			}
		}
		j0 = j1
		if sv.p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := sv.way[j0]
		sv.p[j0] = sv.p[j1]
		j0 = j1
	}
	return true
}
