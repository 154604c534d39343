package mcf

// SolveCostScaling solves the problem with the Goldberg-Tarjan
// successive-approximation (cost-scaling push-relabel) algorithm, an
// independent exact method used to cross-validate the network simplex
// (LEMON ships the same pair of solvers [20]).
//
// Costs are scaled by (n+1) so that an ε < 1 final phase guarantees an
// optimal integer flow. Node prices are refined per phase; push and
// relabel operate on admissible residual arcs (reduced cost < 0).
func (g *Graph) SolveCostScaling() (*Result, error) {
	if g.err != nil {
		return nil, g.err
	}
	n := len(g.supply)
	m := len(g.arcs)
	var sum int64
	for _, b := range g.supply {
		sum += b
	}
	if sum != 0 {
		return nil, ErrInfeasible
	}
	if n == 0 {
		return &Result{}, nil
	}

	// Residual arc representation: forward and backward twins.
	// Arc 2i is g.arcs[i], arc 2i+1 its reverse.
	ra := make([]rarc, 2*m)
	resid := make([]int64, 2*m)
	head := make([][]int32, n)
	alpha := int64(n + 1)
	for i, a := range g.arcs {
		ra[2*i] = rarc{to: int32(a.To), rev: int32(2*i + 1), cost: a.Cost * alpha}
		ra[2*i+1] = rarc{to: int32(a.From), rev: int32(2 * i), cost: -a.Cost * alpha}
		resid[2*i] = a.Cap
		resid[2*i+1] = 0
		head[a.From] = append(head[a.From], int32(2*i))
		head[a.To] = append(head[a.To], int32(2*i+1))
	}

	// Feasibility first: max-flow from supplies to demands over the
	// residual graph ignoring costs (simple BFS augmentation;
	// instances here are moderate). Infeasibility must be detected
	// before price refinement, which assumes a feasible circulation.
	excess := make([]int64, n)
	copy(excess, g.supply)
	if err := saturateSupplies(n, ra, resid, head, excess); err != nil {
		return nil, err
	}

	// Cost scaling on the now-feasible flow.
	price := make([]int64, n)
	var maxC int64 = 1
	for _, a := range g.arcs {
		c := a.Cost * alpha
		if c < 0 {
			c = -c
		}
		if c > maxC {
			maxC = c
		}
	}
	eps := maxC
	buf := make([]int32, 0, n)
	for eps > 1 {
		eps /= 4
		if eps < 1 {
			eps = 1
		}
		// Saturate all admissible arcs (reduced cost < 0).
		for u := 0; u < n; u++ {
			for _, ai := range head[u] {
				if resid[ai] > 0 && ra[ai].cost+price[u]-price[ra[ai].to] < 0 {
					v := ra[ai].to
					excess[u] -= resid[ai]
					excess[v] += resid[ai]
					resid[ra[ai].rev] += resid[ai]
					resid[ai] = 0
				}
			}
		}
		// Active node processing (FIFO push-relabel).
		queue := buf[:0]
		inQ := make([]bool, n)
		for v := 0; v < n; v++ {
			if excess[v] > 0 {
				queue = append(queue, int32(v))
				inQ[v] = true
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			u := int(queue[qi])
			inQ[u] = false
			for excess[u] > 0 {
				pushed := false
				for _, ai := range head[u] {
					if resid[ai] <= 0 {
						continue
					}
					v := int(ra[ai].to)
					if ra[ai].cost+price[u]-price[v] >= 0 {
						continue
					}
					amt := excess[u]
					if resid[ai] < amt {
						amt = resid[ai]
					}
					resid[ai] -= amt
					resid[ra[ai].rev] += amt
					excess[u] -= amt
					excess[v] += amt
					pushed = true
					if excess[v] > 0 && !inQ[v] {
						queue = append(queue, int32(v))
						inQ[v] = true
					}
					if excess[u] == 0 {
						break
					}
				}
				if !pushed {
					// Relabel: lower u's price just enough to create
					// an admissible arc.
					var best int64 = 1 << 62
					for _, ai := range head[u] {
						if resid[ai] <= 0 {
							continue
						}
						rc := ra[ai].cost + price[u] - price[int(ra[ai].to)]
						if rc < best {
							best = rc
						}
					}
					if best >= 1<<61 {
						return nil, ErrInfeasible
					}
					price[u] -= best + eps
				}
			}
		}
		buf = queue
	}

	res := &Result{Flow: make([]int64, m), Pi: make([]int64, n)}
	for i, a := range g.arcs {
		res.Flow[i] = a.Cap - resid[2*i]
		res.Cost += res.Flow[i] * a.Cost
	}
	// Prices are in scaled units; ε < 1 (scaled) guarantees the flow is
	// optimal. Exact integer potentials for the original costs come from
	// a Bellman-Ford pass on the final residual graph (as in SolveSSP).
	dist := make([]int64, n)
	for iter := 0; iter < n; iter++ {
		changed := false
		for i, a := range g.arcs {
			if res.Flow[i] < a.Cap && dist[a.From]+a.Cost < dist[a.To] {
				dist[a.To] = dist[a.From] + a.Cost
				changed = true
			}
			if res.Flow[i] > 0 && dist[a.To]-a.Cost < dist[a.From] {
				dist[a.From] = dist[a.To] - a.Cost
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for v := 0; v < n; v++ {
		res.Pi[v] = -dist[v]
	}
	return res, nil
}

// rarc is one direction of a residual arc pair.
type rarc struct {
	to   int32
	rev  int32 // index of the twin
	cost int64 // scaled cost
}

// saturateSupplies routes all excess to deficits ignoring costs, via
// BFS augmenting paths on the residual graph. It mutates resid/excess
// and fails if the supplies cannot be routed.
func saturateSupplies(n int, ra []rarc, resid []int64, head [][]int32, excess []int64) error {
	prev := make([]int32, n)
	for {
		src := -1
		for v := 0; v < n; v++ {
			if excess[v] > 0 {
				src = v
				break
			}
		}
		if src < 0 {
			return nil
		}
		// BFS to any deficit node.
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = -2
		q := []int32{int32(src)}
		snk := -1
		for qi := 0; qi < len(q) && snk < 0; qi++ {
			u := int(q[qi])
			for _, ai := range head[u] {
				if resid[ai] <= 0 {
					continue
				}
				v := int(ra[ai].to)
				if prev[v] != -1 {
					continue
				}
				prev[v] = ai
				if excess[v] < 0 {
					snk = v
					break
				}
				q = append(q, int32(v))
			}
		}
		if snk < 0 {
			return ErrInfeasible
		}
		// Bottleneck and augment.
		amt := excess[src]
		if -excess[snk] < amt {
			amt = -excess[snk]
		}
		for v := snk; v != src; {
			ai := prev[v]
			if resid[ai] < amt {
				amt = resid[ai]
			}
			v = int(ra[ra[ai].rev].to)
		}
		for v := snk; v != src; {
			ai := prev[v]
			resid[ai] -= amt
			resid[ra[ai].rev] += amt
			v = int(ra[ra[ai].rev].to)
		}
		excess[src] -= amt
		excess[snk] += amt
	}
}
