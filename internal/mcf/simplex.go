package mcf

import (
	"context"
	"errors"
)

// pivotRule selects the entering-arc strategy of the network simplex.
type pivotRule int

const (
	// firstEligible scans arcs cyclically from the previous stop and
	// enters the first arc that violates its optimality condition.
	// This is the rule named by the paper (Section 3.3.1).
	firstEligible pivotRule = iota
	// candidateList keeps a queue of eligible arcs found by a major
	// scan and serves minor pivots from it (most violating first),
	// dropping entries that have gone stale; LEMON's default rule.
	candidateList
)

// autoArcThreshold is the instance size (arcs + artificial arcs) above
// which Solve switches from firstEligible to candidateList: the
// candidate list only pays for its major scans on instances with
// enough arcs to amortize them. BenchmarkPivotRules measures both
// rules on either side of it. Moving it can change which of several
// equal-cost optima refinement returns, and so the placements.
const autoArcThreshold = 4096

// ruleFor picks the pivot rule for an instance with total arcs (real
// plus one artificial arc per node).
func ruleFor(total int) pivotRule {
	if total <= autoArcThreshold {
		return firstEligible
	}
	return candidateList
}

// ErrInfeasible is returned when the supplies cannot be routed.
var ErrInfeasible = errors.New("mcf: infeasible problem")

const (
	stateLower int8 = 1
	stateTree  int8 = 0
	stateUpper int8 = -1
)

// ctxCheckInterval is how many pivots the solver performs between
// cancellation checks: rare enough to stay off the pivot loop's
// profile, frequent enough that a cancelled refinement run stops
// within a bounded amount of work.
const ctxCheckInterval = 1024

// simplex is the solver state: one spanning tree over the n real nodes
// plus an artificial root, with one artificial big-M arc per node
// (arcs m..m+n-1) forming the initial strongly feasible basis. All
// arrays are sized once per instance shape and reused across solves by
// the owning Solver.
type simplex struct {
	n, m, root int

	from, to   []int32
	cap, cost  []int64
	flow       []int64
	state      []int8
	parent     []int32
	parentArc  []int32
	children   [][]int32
	childIdx   []int32
	pi         []int64
	visited    []int32 // join-search stamps
	stamp      int32
	pivots     int
	scanPos    int     // next arc to examine (cyclic scan position)
	cand       []int32 // candidate-list queue (most recent major scan)
	subtreeBuf []int32
}

// init sizes the state for g and copies its arcs, growing the scratch
// arrays only when the shape outgrows their capacity, then builds the
// all-artificial strongly feasible basis: every node hangs off the
// artificial root through an artificial arc oriented by its supply
// sign.
func (s *simplex) init(g *Graph) {
	n := len(g.supply)
	m := len(g.arcs)
	s.n, s.m, s.root = n, m, n
	total := m + n // real arcs then one artificial arc per node
	if cap(s.from) < total {
		s.from = make([]int32, total)
		s.to = make([]int32, total)
		s.cap = make([]int64, total)
		s.cost = make([]int64, total)
		s.flow = make([]int64, total)
		s.state = make([]int8, total)
	} else {
		s.from = s.from[:total]
		s.to = s.to[:total]
		s.cap = s.cap[:total]
		s.cost = s.cost[:total]
		s.flow = s.flow[:total]
		s.state = s.state[:total]
	}
	var artCost int64 = 1
	for a, arc := range g.arcs {
		s.from[a] = int32(arc.From)
		s.to[a] = int32(arc.To)
		s.cap[a] = arc.Cap
		s.cost[a] = arc.Cost
		s.flow[a] = 0
		s.state[a] = stateLower
		c := arc.Cost
		if c < 0 {
			c = -c
		}
		artCost += c
	}

	nn := n + 1
	if cap(s.parent) < nn {
		s.parent = make([]int32, nn)
		s.parentArc = make([]int32, nn)
		s.childIdx = make([]int32, nn)
		s.pi = make([]int64, nn)
		s.visited = make([]int32, nn)
		s.stamp = 0
	} else {
		s.parent = s.parent[:nn]
		s.parentArc = s.parentArc[:nn]
		s.childIdx = s.childIdx[:nn]
		s.pi = s.pi[:nn]
		s.visited = s.visited[:nn]
	}
	if cap(s.children) < nn {
		s.children = make([][]int32, nn)
	} else {
		s.children = s.children[:nn]
	}
	for v := 0; v <= n; v++ {
		s.children[v] = s.children[v][:0]
	}
	for v, b := range g.supply {
		a := m + v
		if b >= 0 {
			s.from[a] = int32(v)
			s.to[a] = int32(s.root)
			s.flow[a] = b
			s.pi[v] = artCost
		} else {
			s.from[a] = int32(s.root)
			s.to[a] = int32(v)
			s.flow[a] = -b
			s.pi[v] = -artCost
		}
		s.cap[a] = Unbounded
		s.cost[a] = artCost
		s.state[a] = stateTree
		s.parent[v] = int32(s.root)
		s.parentArc[v] = int32(a)
		s.childIdx[v] = int32(len(s.children[s.root]))
		s.children[s.root] = append(s.children[s.root], int32(v))
	}
	s.parent[s.root] = -1
	s.parentArc[s.root] = -1
	s.childIdx[s.root] = 0
	s.pi[s.root] = 0
	s.pivots = 0
	s.scanPos = 0
	s.cand = s.cand[:0]
}

// reducedCost of arc a under current potentials.
func (s *simplex) reducedCost(a int) int64 {
	return s.cost[a] + s.pi[s.to[a]] - s.pi[s.from[a]]
}

// eligible reports whether non-tree arc a violates its optimality
// condition.
func (s *simplex) eligible(a int) bool {
	switch s.state[a] {
	case stateLower:
		return s.reducedCost(a) < 0
	case stateUpper:
		return s.reducedCost(a) > 0
	case stateTree:
		return false // basic (tree) arcs never pivot in
	}
	return false
}

// runPivots drives the simplex from the initial basis to optimality
// under rule, polling ctx every ctxCheckInterval pivots.
//
//mclegal:hotpath simplex pivot loop; TestReusedColdSolveZeroAlloc pins reused Solvers to 0 allocs/op
func (s *simplex) runPivots(ctx context.Context, rule pivotRule) error {
	total := s.m + s.n
	if total == 0 {
		return nil
	}
	// Candidate-list sizing (LEMON's proportions): list length about
	// sqrt(total)/4 with a floor, minor iterations about a tenth of it.
	// The sqrt is approximated by doubling to stay off math.Sqrt.
	sq := 1
	for sq*sq < total {
		sq *= 2
	}
	listLen := sq / 4
	if listLen < 10 {
		listLen = 10
	}
	minorLimit := listLen / 10
	if minorLimit < 3 {
		minorLimit = 3
	}
	minorLeft := 0
	s.cand = s.cand[:0]
	for {
		if s.pivots%ctxCheckInterval == 0 {
			//mclegal:alloc ctx.Err is an interface call on the cancellation path only
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		in := -1
		switch rule {
		case firstEligible:
			for cnt := 0; cnt < total; cnt++ {
				a := s.scanPos
				s.scanPos++
				if s.scanPos == total {
					s.scanPos = 0
				}
				if s.eligible(a) {
					in = a
					break
				}
			}
		case candidateList:
			for {
				// Minor iteration: serve the most violating surviving
				// candidate, compacting stale entries in place.
				if minorLeft > 0 && len(s.cand) > 0 {
					minorLeft--
					var best int64
					w := 0
					for _, ca := range s.cand {
						a := int(ca)
						if !s.eligible(a) {
							continue
						}
						s.cand[w] = ca
						w++
						v := s.reducedCost(a)
						if v < 0 {
							v = -v
						}
						if v > best {
							best = v
							in = a
						}
					}
					s.cand = s.cand[:w]
					if in >= 0 {
						break
					}
				}
				// Major iteration: rebuild the list with a cyclic scan.
				// An empty list after a full scan proves optimality.
				s.cand = s.cand[:0]
				for cnt := 0; cnt < total && len(s.cand) < listLen; cnt++ {
					a := s.scanPos
					s.scanPos++
					if s.scanPos == total {
						s.scanPos = 0
					}
					if s.eligible(a) {
						s.cand = append(s.cand, int32(a))
					}
				}
				if len(s.cand) == 0 {
					break
				}
				minorLeft = minorLimit
			}
		}
		if in < 0 {
			return nil // optimal
		}
		s.pivot(in)
		s.pivots++
	}
}

// dirUp is +1 if the tree arc of node v points from v to its parent.
func (s *simplex) dirUp(v int32) int64 {
	if s.from[s.parentArc[v]] == v {
		return 1
	}
	return -1
}

func (s *simplex) pivot(in int) {
	// Effective push direction of the entering arc.
	var first, second int32
	if s.state[in] == stateLower {
		first, second = s.from[in], s.to[in]
	} else {
		first, second = s.to[in], s.from[in]
	}

	// Join node: mark ancestors of first, walk up from second.
	s.stamp++
	for v := first; v >= 0; v = s.parent[v] {
		s.visited[v] = s.stamp
	}
	join := second
	for s.visited[join] != s.stamp {
		join = s.parent[join]
	}

	// Entering arc residual.
	var delta int64
	if s.state[in] == stateLower {
		delta = s.cap[in] - s.flow[in]
	} else {
		delta = s.flow[in]
	}
	leaveNode := int32(-1) // node whose parent arc leaves; -1: entering leaves
	leaveSide := 0

	// The cycle runs join -> first -> (entering) -> second -> join.
	// Choosing the last blocking arc in that order keeps the tree
	// strongly feasible (anti-cycling): strict < on the first path,
	// <= on the second.
	for v := first; v != join; v = s.parent[v] {
		a := s.parentArc[v]
		var res int64
		if s.dirUp(v) > 0 { // cycle pushes against arc direction
			res = s.flow[a]
		} else {
			res = s.cap[a] - s.flow[a]
		}
		if res < delta {
			delta = res
			leaveNode = v
			leaveSide = 1
		}
	}
	for v := second; v != join; v = s.parent[v] {
		a := s.parentArc[v]
		var res int64
		if s.dirUp(v) > 0 { // cycle pushes along arc direction
			res = s.cap[a] - s.flow[a]
		} else {
			res = s.flow[a]
		}
		if res <= delta {
			delta = res
			leaveNode = v
			leaveSide = 2
		}
	}

	// Augment.
	if delta != 0 {
		if s.state[in] == stateLower {
			s.flow[in] += delta
		} else {
			s.flow[in] -= delta
		}
		for v := first; v != join; v = s.parent[v] {
			s.flow[s.parentArc[v]] -= s.dirUp(v) * delta
		}
		for v := second; v != join; v = s.parent[v] {
			s.flow[s.parentArc[v]] += s.dirUp(v) * delta
		}
	}

	if leaveNode < 0 {
		// Entering arc saturates: no basis change.
		s.state[in] = -s.state[in]
		return
	}

	out := s.parentArc[leaveNode]
	// Reduced cost of the entering arc before potentials change.
	rc := s.reducedCost(in)
	// q is the entering-arc endpoint inside the detached subtree.
	var q, attach int32
	var delPi int64
	if leaveSide == 1 {
		q, attach = first, second
	} else {
		q, attach = second, first
	}
	// After the pivot the entering arc is in the tree with rc 0; the
	// whole subtree's potential shifts by +rc or -rc depending on
	// which endpoint moved.
	if q == s.to[in] {
		delPi = -rc
	} else {
		delPi = rc
	}

	// Leaving arc state by its (post-augment) flow.
	if s.flow[out] == 0 {
		s.state[out] = stateLower
	} else {
		s.state[out] = stateUpper
	}
	s.state[in] = stateTree

	// Re-root the detached subtree at q: reverse parent pointers along
	// the path q .. leaveNode. Each path node is unlinked from its old
	// parent just before it is re-linked; when q == leaveNode this
	// single unlink already removes the leaving arc from the tree.
	cur := q
	p := s.parent[cur]
	pa := s.parentArc[cur]
	s.removeChild(q)
	s.parent[q] = attach
	s.parentArc[q] = int32(in)
	s.childIdx[q] = int32(len(s.children[attach]))
	s.children[attach] = append(s.children[attach], q)
	for cur != leaveNode {
		next := p
		p = s.parent[next]
		npa := s.parentArc[next]
		// next becomes a child of cur.
		s.removeChild(next)
		s.parent[next] = cur
		s.parentArc[next] = pa
		s.childIdx[next] = int32(len(s.children[cur]))
		s.children[cur] = append(s.children[cur], next)
		pa = npa
		cur = next
	}

	// Shift potentials of the re-rooted subtree.
	if delPi != 0 {
		stack := s.subtreeBuf[:0]
		stack = append(stack, q)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s.pi[v] += delPi
			stack = append(stack, s.children[v]...)
		}
		s.subtreeBuf = stack[:0]
	}
}

// removeChild unlinks v from its parent's child list in O(1).
func (s *simplex) removeChild(v int32) {
	p := s.parent[v]
	if p < 0 {
		return
	}
	cs := s.children[p]
	i := s.childIdx[v]
	last := int32(len(cs) - 1)
	if i != last {
		moved := cs[last]
		cs[i] = moved
		s.childIdx[moved] = i
	}
	s.children[p] = cs[:last]
}
