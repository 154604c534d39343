// mcf mode: the solver-layer sweep behind BENCH_mcf.json. It measures
// the production network simplex, (*mcf.Solver).Solve, on a fresh and
// on a reused Solver, plus the two reference solvers, over the three
// benchmark graph families (mcf/families.go). Every family is
// cross-validated before a single number is recorded: on its
// validation instance the simplex, cost-scaling, SSP and (assignment
// only) the Hungarian matching solver must all report the same optimal
// cost, or the sweep aborts.
//
// SSP is benchmarked at the (smaller) validation size — its
// Bellman-Ford inner loop does not finish in sensible time at the
// simplex bench sizes — so every run records its own nodes/arcs; rows
// are only comparable at equal sizes.
//
// Times come from testing.Benchmark. Allocation counts come from
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and discards a
// warm-up run, so a stray runtime allocation elsewhere in the process
// cannot land on a row (testing.Benchmark counts process-wide mallocs).
// The per-rule comparison that tuned the size-keyed pivot rule lives in
// the package: go test -run '^$' -bench PivotRules ./internal/mcf.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"

	"mclegal/internal/matching"
	"mclegal/internal/mcf"
)

// mcfRun is one measured configuration on one family.
type mcfRun struct {
	Solver string `json:"solver"` // simplex | costscaling | ssp
	// Mode: cold-fresh allocates a solver per solve, cold-reused
	// solves the same instance on one long-lived Solver (simplex only).
	Mode        string `json:"mode"`
	Nodes       int    `json:"nodes"`
	Arcs        int    `json:"arcs"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Pivots      int    `json:"pivots,omitempty"` // pivots per solve (simplex only)
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// mcfValidation records the cross-solver agreement that gates the
// family's benchmark rows.
type mcfValidation struct {
	Nodes int `json:"nodes"`
	Arcs  int `json:"arcs"`
	// Cost is the optimal objective every listed solver agreed on.
	Cost    int64    `json:"cost"`
	Solvers []string `json:"solvers"`
}

type mcfFamilySummary struct {
	Family string `json:"family"`
	Nodes  int    `json:"nodes"`
	Arcs   int    `json:"arcs"`
	// Allocation economy of Solver reuse vs a fresh solve.
	ColdAllocs   int64         `json:"cold_allocs_per_op"`
	ReusedAllocs int64         `json:"reused_allocs_per_op"`
	AllocRatio   float64       `json:"alloc_ratio"`
	Validation   mcfValidation `json:"validation"`
	Runs         []mcfRun      `json:"runs"`
}

type mcfReport struct {
	Bench     string             `json:"bench"`
	Smoke     bool               `json:"smoke,omitempty"`
	CPUModel  string             `json:"cpu_model"`
	NumCPU    int                `json:"numcpu"`
	GoVersion string             `json:"goversion"`
	Families  []mcfFamilySummary `json:"families"`
}

// mcfFamily pairs a benchmark instance with the smaller validation
// instance the cross-solver agreement runs on.
type mcfFamily struct {
	name  string
	bench *mcf.Graph
	valid *mcf.Graph
	// assignN is the matrix size when the family is an assignment
	// instance (enables the Hungarian cross-check), 0 otherwise.
	assignN int
}

func mcfFamilies(smoke bool) []mcfFamily {
	if smoke {
		return []mcfFamily{
			{name: "refinement", bench: mcf.RefinementGraph(60, 7), valid: mcf.RefinementGraph(48, 3)},
			{name: "assignment", bench: mcf.AssignmentGraph(12, 9), valid: mcf.AssignmentGraph(10, 4), assignN: 10},
			{name: "circulation", bench: mcf.CirculationGraph(40, 160, 11), valid: mcf.CirculationGraph(32, 128, 5)},
		}
	}
	return []mcfFamily{
		{name: "refinement", bench: mcf.RefinementGraph(5000, 7), valid: mcf.RefinementGraph(300, 3)},
		{name: "assignment", bench: mcf.AssignmentGraph(150, 9), valid: mcf.AssignmentGraph(60, 4), assignN: 60},
		{name: "circulation", bench: mcf.CirculationGraph(2000, 10000, 11), valid: mcf.CirculationGraph(200, 800, 5)},
	}
}

// allocRuns is the testing.AllocsPerRun count per row. The solvers'
// allocation counts are deterministic, so a few runs suffice.
const allocRuns = 5

// sweepMCF measures the solver layer and returns the report committed
// as BENCH_mcf.json. Smoke mode shrinks every instance and clamps
// benchtime to one iteration so CI can exercise the full code path in
// seconds.
func sweepMCF(smoke bool) mcfReport {
	if smoke {
		// When running inside a test binary the testing flags already
		// exist; outside one they must be registered first.
		if flag.Lookup("test.benchtime") == nil {
			testing.Init()
		}
		flag.Set("test.benchtime", "1x")
	}
	rep := mcfReport{
		Bench:     "MCFSolvers",
		Smoke:     smoke,
		CPUModel:  cpuModel(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	for _, fam := range mcfFamilies(smoke) {
		rep.Families = append(rep.Families, sweepMCFFamily(fam))
	}
	return rep
}

func sweepMCFFamily(fam mcfFamily) mcfFamilySummary {
	sum := mcfFamilySummary{
		Family:     fam.name,
		Nodes:      fam.bench.NumNodes(),
		Arcs:       fam.bench.NumArcs(),
		Validation: validateMCFFamily(fam),
	}
	log.Printf("%s: %d nodes, %d arcs (validated cost %d at %d nodes)",
		fam.name, sum.Nodes, sum.Arcs, sum.Validation.Cost, sum.Validation.Nodes)

	g := fam.bench
	ctx := context.Background()
	res, err := mcf.NewSolver().Solve(ctx, g)
	if err != nil {
		log.Fatalf("%s: simplex: %v", fam.name, err)
	}
	pivots := res.Pivots
	fresh := measureMCF(g, "simplex", "cold-fresh", pivots, func() error {
		_, err := mcf.NewSolver().Solve(ctx, g)
		return err
	})
	sv := mcf.NewSolver()
	reused := measureMCF(g, "simplex", "cold-reused", pivots, func() error {
		_, err := sv.Solve(ctx, g)
		return err
	})
	costScaling := measureMCF(g, "costscaling", "cold-fresh", 0, func() error {
		_, err := g.SolveCostScaling()
		return err
	})
	// SSP at validation size only; its nodes/arcs fields say so.
	vg := fam.valid
	ssp := measureMCF(vg, "ssp", "cold-fresh", 0, func() error {
		_, err := vg.SolveSSP()
		return err
	})
	sum.Runs = []mcfRun{fresh, reused, costScaling, ssp}

	sum.ColdAllocs = fresh.AllocsPerOp
	sum.ReusedAllocs = reused.AllocsPerOp
	denom := sum.ReusedAllocs
	if denom < 1 {
		denom = 1
	}
	sum.AllocRatio = float64(sum.ColdAllocs) / float64(denom)
	log.Printf("%s: alloc ratio %.0fx (%d -> %d)", fam.name, sum.AllocRatio, sum.ColdAllocs, sum.ReusedAllocs)
	return sum
}

// validateMCFFamily proves every solver agrees on the validation
// instance's optimal cost, aborting the sweep otherwise.
func validateMCFFamily(fam mcfFamily) mcfValidation {
	g := fam.valid
	val := mcfValidation{Nodes: g.NumNodes(), Arcs: g.NumArcs()}
	check := func(name string, res *mcf.Result, err error) {
		if err != nil {
			log.Fatalf("%s validation: %s: %v", fam.name, name, err)
		}
		if verr := g.VerifyOptimal(res); verr != nil {
			log.Fatalf("%s validation: %s certificate: %v", fam.name, name, verr)
		}
		if len(val.Solvers) == 0 {
			val.Cost = res.Cost
		} else if res.Cost != val.Cost {
			log.Fatalf("%s validation: %s found cost %d, others found %d",
				fam.name, name, res.Cost, val.Cost)
		}
		val.Solvers = append(val.Solvers, name)
	}
	res, err := mcf.NewSolver().Solve(context.Background(), g)
	check("simplex", res, err)
	res, err = g.SolveCostScaling()
	check("costscaling", res, err)
	res, err = g.SolveSSP()
	check("ssp", res, err)

	if fam.assignN > 0 {
		n := fam.assignN
		var msv matching.Solver
		_, total, ok, err := msv.Solve(context.Background(), n, func(i, j int) int64 {
			return g.Arc(i*n + j).Cost
		})
		if err != nil || !ok {
			log.Fatalf("%s validation: matching found no perfect assignment (err %v)", fam.name, err)
		}
		if total != val.Cost {
			log.Fatalf("%s validation: matching/hungarian found cost %d, others found %d",
				fam.name, total, val.Cost)
		}
		val.Solvers = append(val.Solvers, "matching/hungarian")
	}
	return val
}

// measureMCF times solve with testing.Benchmark and counts its
// allocations with testing.AllocsPerRun.
func measureMCF(g *mcf.Graph, solver, mode string, pivots int, solve func() error) mcfRun {
	if err := solve(); err != nil {
		log.Fatalf("%s %s: %v", solver, mode, err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := testing.AllocsPerRun(allocRuns, func() {
		if err := solve(); err != nil {
			log.Fatalf("%s %s: %v", solver, mode, err)
		}
	})
	run := mcfRun{
		Solver:      solver,
		Mode:        mode,
		Nodes:       g.NumNodes(),
		Arcs:        g.NumArcs(),
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: int64(allocs),
		Pivots:      pivots,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	log.Printf("  %-12s %-12s %12d ns/op  %8d allocs/op  pivots %d",
		solver, mode, run.NsPerOp, run.AllocsPerOp, run.Pivots)
	return run
}

// cpuModel is the first "model name" of /proc/cpuinfo, or GOARCH.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
