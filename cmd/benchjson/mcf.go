// mcf mode: the solver-layer sweep behind BENCH_mcf.json. It measures
// the production network simplex, (*mcf.Solver).Solve, on a fresh and
// on a reused Solver over the three benchmark graph families
// (mcf/families.go). Every family's benchmark instance is certified
// before a single number is recorded: the simplex solution must pass
// the complementary-slackness check VerifyOptimal, and on the
// assignment family the Hungarian matching solver must find the same
// optimal cost, or the sweep aborts. A certificate does not depend on
// a second solver, so the yardstick does not move when the code does.
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
	// Mode: cold-fresh allocates a solver per solve, cold-reused
	// solves the same instance on one long-lived Solver.
	Mode        string `json:"mode"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

// mcfValidation records the checks that gate the family's benchmark
// rows.
type mcfValidation struct {
	// Cost is the certified optimal objective of the benchmark
	// instance, which every listed solver reached.
	Cost    int64    `json:"cost"`
	Solvers []string `json:"solvers"`
}

type mcfFamilySummary struct {
	Family string `json:"family"`
	Nodes  int    `json:"nodes"`
	Arcs   int    `json:"arcs"`
	// Pivots per solve; fresh and reused solves pivot identically.
	Pivots int `json:"pivots"`
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

// mcfFamily is one benchmark instance.
type mcfFamily struct {
	name string
	g    *mcf.Graph
	// assignment marks the n×n assignment instance (nodes 0..n-1
	// supply, arc i*n+j joins i to n+j), which enables the Hungarian
	// cross-check.
	assignment bool
}

func mcfFamilies(smoke bool) []mcfFamily {
	if smoke {
		return []mcfFamily{
			{name: "refinement", g: mcf.RefinementGraph(60, 7)},
			{name: "assignment", g: mcf.AssignmentGraph(12, 9), assignment: true},
			{name: "circulation", g: mcf.CirculationGraph(40, 160, 11)},
		}
	}
	return []mcfFamily{
		{name: "refinement", g: mcf.RefinementGraph(5000, 7)},
		{name: "assignment", g: mcf.AssignmentGraph(150, 9), assignment: true},
		{name: "circulation", g: mcf.CirculationGraph(2000, 10000, 11)},
	}
}

// allocRuns is the testing.AllocsPerRun count per row. The solver's
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
	g := fam.g
	ctx := context.Background()
	res, err := mcf.NewSolver().Solve(ctx, g)
	if err != nil {
		log.Fatalf("%s: simplex: %v", fam.name, err)
	}
	sum := mcfFamilySummary{
		Family:     fam.name,
		Nodes:      g.NumNodes(),
		Arcs:       g.NumArcs(),
		Pivots:     res.Pivots,
		Validation: validateMCFFamily(fam, res),
	}
	log.Printf("%s: %d nodes, %d arcs, %d pivots (certified cost %d)",
		fam.name, sum.Nodes, sum.Arcs, sum.Pivots, sum.Validation.Cost)

	fresh := measureMCF(fam.name, "cold-fresh", func() error {
		_, err := mcf.NewSolver().Solve(ctx, g)
		return err
	})
	sv := mcf.NewSolver()
	reused := measureMCF(fam.name, "cold-reused", func() error {
		_, err := sv.Solve(ctx, g)
		return err
	})
	sum.Runs = []mcfRun{fresh, reused}

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

// validateMCFFamily certifies the simplex result on the family's
// benchmark instance and, on the assignment family, checks it against
// the Hungarian matching solver, aborting the sweep on any failure.
func validateMCFFamily(fam mcfFamily, res *mcf.Result) mcfValidation {
	g := fam.g
	if err := g.VerifyOptimal(res); err != nil {
		log.Fatalf("%s validation: simplex certificate: %v", fam.name, err)
	}
	val := mcfValidation{Cost: res.Cost, Solvers: []string{"simplex"}}
	if fam.assignment {
		n := g.NumNodes() / 2
		var msv matching.Solver
		_, total, ok, err := msv.Solve(context.Background(), n, func(i, j int) int64 {
			return g.Arc(i*n + j).Cost
		})
		if err != nil || !ok {
			log.Fatalf("%s validation: matching found no perfect assignment (err %v)", fam.name, err)
		}
		if total != val.Cost {
			log.Fatalf("%s validation: matching/hungarian found cost %d, simplex found %d",
				fam.name, total, val.Cost)
		}
		val.Solvers = append(val.Solvers, "matching/hungarian")
	}
	return val
}

// measureMCF times solve with testing.Benchmark and counts its
// allocations with testing.AllocsPerRun.
func measureMCF(family, mode string, solve func() error) mcfRun {
	if err := solve(); err != nil {
		log.Fatalf("%s %s: %v", family, mode, err)
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
			log.Fatalf("%s %s: %v", family, mode, err)
		}
	})
	run := mcfRun{
		Mode:        mode,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: int64(allocs),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	log.Printf("  %-12s %12d ns/op  %8d allocs/op", mode, run.NsPerOp, run.AllocsPerOp)
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
