// Package mcf implements an exact integer minimum-cost-flow solver: a
// primal network simplex behind one entrypoint, (*Solver).Solve, with
// the first-eligible pivot rule (the configuration the paper uses
// through LEMON [20]) on small instances and a candidate list on large
// ones. A cost-scaling push-relabel solver and a slow
// successive-shortest-path solver serve as independent references the
// tests cross-check the simplex against.
//
// The solver handles arbitrary (also negative) arc costs, zero lower
// bounds, finite capacities, and node supplies summing to zero. On
// success it returns both the optimal arc flows and optimal node
// potentials; the legalizer's fixed-row-and-order refinement reads the
// legal x-coordinates directly off the potentials (paper Section 3.3).
package mcf

import (
	"fmt"
	"math"
)

// Unbounded is a convenience capacity for arcs without a meaningful
// bound. Callers that may route large flow should pass an explicit
// problem-specific bound instead.
const Unbounded = int64(math.MaxInt64) / 4

// Arc is one directed arc of the flow network.
type Arc struct {
	From, To int
	Cap      int64
	Cost     int64
}

// Graph is a min-cost-flow problem under construction. The zero value
// is an empty graph; add nodes before arcs.
//
// Malformed construction (out-of-range endpoints, negative capacity)
// does not panic: the first such mistake is recorded as a typed
// *BuildError and returned by BuildErr and by every solver, so a bad
// network surfaces as a stage error instead of a process crash.
type Graph struct {
	supply []int64
	arcs   []Arc
	err    error
}

// BuildError reports a malformed AddArc call: an endpoint outside the
// node range or a negative capacity.
type BuildError struct {
	Arc      int // index the arc would have had
	From, To int
	Nodes    int
	Cap      int64
	Reason   string
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("mcf: arc %d (%d->%d, cap %d): %s (graph has %d nodes)",
		e.Arc, e.From, e.To, e.Cap, e.Reason, e.Nodes)
}

// NewGraph returns a graph with n nodes (numbered 0..n-1) and zero
// supplies.
func NewGraph(n int) *Graph {
	return &Graph{supply: make([]int64, n)}
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	g.supply = append(g.supply, 0)
	return len(g.supply) - 1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.supply) }

// NumArcs returns the arc count.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// SetSupply sets node v's supply (positive) or demand (negative).
func (g *Graph) SetSupply(v int, b int64) { g.supply[v] = b }

// AddSupply adds to node v's supply.
func (g *Graph) AddSupply(v int, b int64) { g.supply[v] += b }

// AddArc appends an arc and returns its index. Capacity must be
// non-negative; cost may have any sign. An invalid arc (endpoint out
// of range, negative capacity) is not appended: it records a
// *BuildError — the first one wins — and returns -1; the error is
// reported by BuildErr and by every solver.
func (g *Graph) AddArc(from, to int, cap, cost int64) int {
	if from < 0 || from >= len(g.supply) || to < 0 || to >= len(g.supply) {
		g.setErr(&BuildError{
			Arc: len(g.arcs), From: from, To: to, Nodes: len(g.supply), Cap: cap,
			Reason: "endpoint out of range",
		})
		return -1
	}
	if cap < 0 {
		g.setErr(&BuildError{
			Arc: len(g.arcs), From: from, To: to, Nodes: len(g.supply), Cap: cap,
			Reason: "negative capacity",
		})
		return -1
	}
	g.arcs = append(g.arcs, Arc{From: from, To: to, Cap: cap, Cost: cost})
	return len(g.arcs) - 1
}

func (g *Graph) setErr(err error) {
	if g.err == nil {
		g.err = err
	}
}

// BuildErr returns the first construction error recorded by AddArc,
// or nil for a well-formed graph.
func (g *Graph) BuildErr() error { return g.err }

// Arc returns arc a.
func (g *Graph) Arc(a int) Arc { return g.arcs[a] }

// Result is an optimal solution of a min-cost-flow problem.
type Result struct {
	// Flow[a] is the optimal flow on arc a.
	Flow []int64
	// Pi[v] is an optimal node potential. For every arc a:
	//   flow 0       => Cost(a) - Pi[From] + Pi[To] >= 0
	//   0<flow<cap   => Cost(a) - Pi[From] + Pi[To] == 0
	//   flow == cap  => Cost(a) - Pi[From] + Pi[To] <= 0
	Pi []int64
	// Cost is the total flow cost.
	Cost int64
	// Pivots counts simplex pivots (0 for the SSP solver).
	Pivots int
}

// ReducedCost returns Cost(a) - Pi[From] + Pi[To] for result r on graph g.
func (g *Graph) ReducedCost(r *Result, a int) int64 {
	arc := g.arcs[a]
	return arc.Cost - r.Pi[arc.From] + r.Pi[arc.To]
}

// VerifyOptimal checks primal feasibility and complementary slackness of
// r against g, returning the first violation found. Intended for tests
// and debug assertions.
func (g *Graph) VerifyOptimal(r *Result) error {
	if len(r.Flow) != len(g.arcs) || len(r.Pi) != len(g.supply) {
		return fmt.Errorf("mcf: result shape mismatch")
	}
	excess := make([]int64, len(g.supply))
	copy(excess, g.supply)
	var cost int64
	for a, arc := range g.arcs {
		f := r.Flow[a]
		if f < 0 || f > arc.Cap {
			return fmt.Errorf("mcf: arc %d flow %d outside [0,%d]", a, f, arc.Cap)
		}
		excess[arc.From] -= f
		excess[arc.To] += f
		cost += f * arc.Cost
		if arc.Cap == 0 {
			continue // flow is forced; complementary slackness is vacuous
		}
		rc := g.ReducedCost(r, a)
		switch {
		case f == 0 && rc < 0:
			return fmt.Errorf("mcf: arc %d at lower bound with rc %d", a, rc)
		case f == arc.Cap && rc > 0:
			return fmt.Errorf("mcf: arc %d at capacity with rc %d", a, rc)
		case f > 0 && f < arc.Cap && rc != 0:
			return fmt.Errorf("mcf: arc %d interior with rc %d", a, rc)
		}
	}
	for v, e := range excess {
		if e != 0 {
			return fmt.Errorf("mcf: node %d conservation violated by %d", v, e)
		}
	}
	if cost != r.Cost {
		return fmt.Errorf("mcf: reported cost %d, recomputed %d", r.Cost, cost)
	}
	return nil
}
