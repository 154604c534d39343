package main

import (
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mclegal/internal/analysis"
	"mclegal/internal/analysis/framework"
	"mclegal/internal/analysis/scope"
)

// vetRun is one analyzer's share of a full-suite mclegal-vet run. The
// analyzers execute in suite order over ONE shared program, so NsPerOp
// is the analyzer's incremental cost: the first write-effect analyzer
// pays for the shared call-graph and effect summaries, and the later
// ones reuse the cached results — exactly the composition a real
// mclegal-vet invocation pays.
type vetRun struct {
	Analyzer    string `json:"analyzer"`
	NsPerOp     int64  `json:"ns_per_op"`
	Diagnostics int    `json:"diagnostics"`
}

type vetReport struct {
	Bench     string `json:"bench"`
	Packages  int    `json:"packages"`
	CPUModel  string `json:"cpu_model"`
	NumCPU    int    `json:"numcpu"`
	GoVersion string `json:"goversion"`
	// LoadNs is the one-time cost of loading and type-checking the
	// scoped program; TotalNs is load plus every analyzer.
	LoadNs  int64    `json:"load_ns"`
	TotalNs int64    `json:"total_ns"`
	Runs    []vetRun `json:"runs"`
}

// sweepVet times the full analyzer suite over the same scoped program
// the suite test uses: the union of every analyzer's scope list plus
// the write-effect and hot-path closures.
func sweepVet() vetReport {
	root, err := findModuleRoot()
	if err != nil {
		log.Fatal(err)
	}
	seen := make(map[string]bool)
	var paths []string
	for _, set := range [][]string{
		scope.DeterministicCore,
		scope.FloatCritical,
		scope.GateBoundary,
		scope.CancellationAware,
		scope.ConcurrencyScope,
		scope.WriteEffectClosure,
		scope.HotPathClosure,
	} {
		for _, p := range set {
			full := p
			if !strings.HasPrefix(full, "mclegal/") {
				full = "mclegal/" + full
			}
			if !seen[full] {
				seen[full] = true
				paths = append(paths, full)
			}
		}
	}
	sort.Strings(paths)

	rep := vetReport{
		Bench:     "VetSuite",
		Packages:  len(paths),
		CPUModel:  cpuModel(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	start := time.Now()
	prog, err := framework.LoadProgram(framework.NewLoader("mclegal", root), paths)
	if err != nil {
		log.Fatal(err)
	}
	rep.LoadNs = time.Since(start).Nanoseconds()

	for _, a := range analysis.All() {
		t0 := time.Now()
		diags, err := prog.Run([]*framework.Analyzer{a})
		if err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
		rep.Runs = append(rep.Runs, vetRun{
			Analyzer:    a.Name,
			NsPerOp:     time.Since(t0).Nanoseconds(),
			Diagnostics: len(diags),
		})
	}
	rep.TotalNs = time.Since(start).Nanoseconds()
	return rep
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod, so benchjson can be run from anywhere inside the module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
