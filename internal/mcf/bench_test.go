package mcf

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkSimplexRefinementShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := RefinementGraph(5000, 7)
		res, err := NewSolver().Solve(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Pivots), "pivots")
		}
	}
}

func BenchmarkSimplexTransport(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const src, dst = 60, 60
	g := NewGraph(src + dst)
	for s := 0; s < src; s++ {
		g.SetSupply(s, 50)
		for t := 0; t < dst; t++ {
			g.AddArc(s, src+t, 60, int64(rng.Intn(1000)))
		}
	}
	for t := 0; t < dst; t++ {
		g.SetSupply(src+t, -50)
	}
	sv := NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// placementGraph builds a network shaped like refinement's own
// (Section 3.3, internal/refine): n cells packed along rows of perRow
// cells, each within four sites of its GP, with the f_i^± displacement
// arcs, the f_i^l/f_i^r arcs of the cell's row range, one neighbour arc
// per consecutive pair of a row and, with ext, the v_p/v_n
// maximum-displacement extension. RefinementGraph, by contrast, hangs
// unordered cells with random GPs off one hub.
func placementGraph(n, perRow int, ext bool, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	const weight, n0 = 1, 8
	z, p, nn := n, n+1, n+2
	g := NewGraph(n + 1)
	if ext {
		g = NewGraph(n + 3)
	}
	capSum := int64(2*n*weight + 2*n0 + 16)
	rowW := 5*perRow + 4
	var maxDy int64
	x, prevW := 0, 0
	for i := 0; i < n; i++ {
		if i%perRow == 0 {
			x = rng.Intn(3)
		}
		w := 2 + rng.Intn(3)
		gx := int64(max(0, x+rng.Intn(9)-4))
		g.AddArc(i, z, weight, gx)
		g.AddArc(z, i, weight, -gx)
		g.AddArc(z, i, capSum, 0)
		g.AddArc(i, z, capSum, int64(rowW-w))
		if i%perRow != 0 {
			g.AddArc(i-1, i, capSum, -int64(prevW))
		}
		if ext {
			dy := int64(8 * rng.Intn(3))
			maxDy = max(maxDy, dy)
			g.AddArc(i, p, capSum, gx-dy)
			g.AddArc(nn, i, capSum, -gx-dy)
		}
		x += w + rng.Intn(2)
		prevW = w
	}
	if ext {
		g.AddArc(p, z, n0, maxDy)
		g.AddArc(z, nn, n0, maxDy)
	}
	return g
}

// BenchmarkPivotRules compares the two pivot rules Solve chooses
// between on the benchmark graph families, on both sides of
// autoArcThreshold. The candidate list pays for its major scans only on
// instances large enough to amortize them; EXPERIMENTS.md records where
// each family puts the crossover, and how the production networks
// differ. Each sub-benchmark reports the instance size (total arcs,
// artificial arcs included) and the pivot count.
//
//	go test -run '^$' -bench PivotRules ./internal/mcf
func BenchmarkPivotRules(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
		{"placement-500", placementGraph(500, 40, false, 7)},
		{"placement-1000", placementGraph(1000, 40, false, 7)},
		{"placement-5000", placementGraph(5000, 40, false, 7)},
		{"placement-ext-1000", placementGraph(1000, 40, true, 7)},
		{"placement-ext-5000", placementGraph(5000, 40, true, 7)},
		{"refinement-60", RefinementGraph(60, 7)},
		{"refinement-400", RefinementGraph(400, 7)},
		{"refinement-1000", RefinementGraph(1000, 7)},
		{"refinement-5000", RefinementGraph(5000, 7)},
		{"assignment-12", AssignmentGraph(12, 9)},
		{"assignment-40", AssignmentGraph(40, 9)},
		{"assignment-150", AssignmentGraph(150, 9)},
		{"circulation-40", CirculationGraph(40, 160, 11)},
		{"circulation-400", CirculationGraph(400, 2000, 11)},
		{"circulation-2000", CirculationGraph(2000, 10000, 11)},
	}
	ctx := context.Background()
	for _, fam := range families {
		total := fam.g.NumArcs() + fam.g.NumNodes()
		for _, rule := range allRules {
			b.Run(fmt.Sprintf("%s/%s", fam.name, ruleNames[rule]), func(b *testing.B) {
				var sv Solver
				var pivots int
				for i := 0; i < b.N; i++ {
					res, err := sv.solve(ctx, fam.g, rule)
					if err != nil {
						b.Fatal(err)
					}
					pivots = res.Pivots
				}
				b.ReportMetric(float64(total), "arcs")
				b.ReportMetric(float64(pivots), "pivots")
			})
		}
	}
}
