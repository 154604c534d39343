package mcf

import (
	"context"
	"fmt"
)

// Solver is a reusable network-simplex instance. The zero value is
// ready to use. A Solver is not safe for concurrent use.
//
// A Solver owns every scratch array of the simplex and grows them only
// when an instance outgrows their capacity, so repeated solves of
// same-shape instances allocate nothing after the first.
//
// Results returned by a Solver alias its internal arrays: Flow and Pi
// are valid until the next call on the same Solver. Callers that need
// the values past that must copy them.
type Solver struct {
	sx  simplex
	res Result
}

// NewSolver returns an empty Solver. Equivalent to new(Solver).
func NewSolver() *Solver { return &Solver{} }

// Solve runs the network simplex on g from the all-artificial basis and
// returns optimal flows, potentials and cost. The pivot rule is keyed
// on the instance size: first-eligible (the paper's rule) up to
// autoArcThreshold arcs including one artificial arc per node,
// candidate-list above it. The pivot loop polls ctx every
// ctxCheckInterval pivots and returns ctx.Err() once ctx is done.
func (sv *Solver) Solve(ctx context.Context, g *Graph) (*Result, error) {
	return sv.solve(ctx, g, ruleFor(len(g.arcs)+len(g.supply)))
}

// solve is Solve under an explicit pivot rule; the tests use it to run
// both rules on instances of any size.
func (sv *Solver) solve(ctx context.Context, g *Graph, rule pivotRule) (*Result, error) {
	if g.err != nil {
		return nil, g.err
	}
	var sum int64
	for _, b := range g.supply {
		sum += b
	}
	if sum != 0 {
		return nil, fmt.Errorf("mcf: supplies sum to %d, want 0: %w", sum, ErrInfeasible)
	}
	s := &sv.sx
	s.init(g)
	if err := s.runPivots(ctx, rule); err != nil {
		return nil, err
	}
	for a := s.m; a < s.m+s.n; a++ {
		if s.flow[a] != 0 {
			return nil, ErrInfeasible
		}
	}
	var cost int64
	for a := 0; a < s.m; a++ {
		cost += s.flow[a] * s.cost[a]
	}
	sv.res = Result{
		Flow:   s.flow[:s.m:s.m],
		Pi:     s.pi[:s.n:s.n],
		Cost:   cost,
		Pivots: s.pivots,
	}
	return &sv.res, nil
}
