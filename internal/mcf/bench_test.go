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

// BenchmarkPivotRules compares the two pivot rules Solve chooses
// between on the benchmark graph families, on both sides of
// autoArcThreshold. It is the measurement behind the threshold: the
// candidate list pays for its major scans only on instances large
// enough to amortize them. Each sub-benchmark reports the instance
// size (total arcs, artificial arcs included) and the pivot count.
//
//	go test -run '^$' -bench PivotRules ./internal/mcf
func BenchmarkPivotRules(b *testing.B) {
	families := []struct {
		name string
		g    *Graph
	}{
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
