// benchjson runs the sweeps of the layers no request benchmark
// measures and writes them as machine-readable trajectory files, so
// perf changes can be compared across commits without parsing `go test
// -bench` text output.
//
// Usage:
//
//	benchjson -mode mcf [-out BENCH_mcf.json] [-smoke]
//	benchjson -mode vet [-out BENCH_vet.json]
//
// The mcf mode measures the production network simplex on fresh and
// reused solvers over the benchmark graph families, each instance
// certified optimal before it is timed (see mcf.go); the vet mode times
// the full fourteen-analyzer mclegal-vet suite over the scoped program
// and records each analyzer's incremental wall time and diagnostic
// count (see vet.go). Requests end to end are mclbench's job
// (BENCHMARK.json), and the MGL worker-count sweep is
// `go test -bench WorkersSweep`.
//
// The recorded environment (numcpu, per-run gomaxprocs, goversion)
// travels with the numbers: they are only meaningful relative to the
// machine that produced them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		mode  = fs.String("mode", "", "sweep to run: mcf (solver layer) or vet (analyzer suite)")
		out   = fs.String("out", "", "output file (- for stdout; default BENCH_<mode>.json)")
		smoke = fs.Bool("smoke", false, "shrink instances and run one iteration per config (mcf mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log.SetFlags(0)

	var buf []byte
	var summary string
	switch *mode {
	case "mcf":
		rep := sweepMCF(*smoke)
		buf = marshal(rep)
		summary = fmt.Sprintf("%d families, %d CPUs", len(rep.Families), rep.NumCPU)
	case "vet":
		rep := sweepVet()
		buf = marshal(rep)
		summary = fmt.Sprintf("%d analyzers over %d packages, %d CPUs", len(rep.Runs), rep.Packages, rep.NumCPU)
	default:
		log.Printf("-mode must be mcf or vet, got %q", *mode)
		return 2
	}
	if *out == "" {
		*out = "BENCH_" + *mode + ".json"
	}

	if *out == "-" {
		stdout.Write(buf)
		return 0
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%s)\n", *out, summary)
	return 0
}

func marshal(v any) []byte {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	return append(buf, '\n')
}
