// legalize runs the three-stage legalization pipeline on a .mcl design.
//
// Usage:
//
//	legalize -i design.mcl -o legal.mcl [-routability] [-total] [-workers N]
//	         [-shards N|auto] [-skip-maxdisp] [-skip-refine] [-delta0 10]
//	         [-progress text|json] [-timeout 5m] [-verify]
//	         [-recovery strict|fallback|besteffort]
//
// Exit codes:
//
//	0  the result is legal and every stage passed
//	1  legalization failed (no usable result)
//	2  usage error
//	3  a stage failed but a fallback or safe skip repaired the run;
//	   the result is legal
//	4  best-effort recovery was exhausted; the written result is the
//	   best known state but NOT verified legal
//	5  the -timeout budget expired mid-run (deadline exceeded) — a
//	   distinct failure class from 1: the input may be fine, the run
//	   just needs more time
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"mclegal"
)

const (
	exitLegal     = 0
	exitFailed    = 1
	exitUsage     = 2
	exitRecovered = 3
	exitPartial   = 4
	exitDeadline  = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("legalize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("i", "", "input .mcl design (required)")
		out         = fs.String("o", "", "output .mcl with legal positions (optional)")
		routability = fs.Bool("routability", false, "enable pin/rail-aware legalization")
		total       = fs.Bool("total", false, "optimize total instead of height-averaged displacement")
		workers     = fs.Int("workers", 0, "MGL worker threads (0 = all cores)")
		shards      = fs.String("shards", "0", "concurrent fence/slab shards: a count, auto, or 0 for the monolithic pipeline")
		skipMatch   = fs.Bool("skip-maxdisp", false, "skip the matching stage")
		skipRefine  = fs.Bool("skip-refine", false, "skip the fixed-order refinement")
		delta0      = fs.Float64("delta0", 0, "phi threshold in rows (0 = default)")
		globalPlace = fs.Bool("globalplace", false, "derive GP positions from the netlist first (quadratic placer)")
		progress    = fs.String("progress", "", "per-stage progress to stderr: text or json")
		timeout     = fs.Duration("timeout", 0, "abort legalization after this duration (0 = none)")
		verify      = fs.Bool("verify", false, "audit every stage against a snapshot and roll back on violations")
		recovery    = fs.String("recovery", "strict", "gate-failure policy: strict, fallback or besteffort")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	lg := log.New(stderr, "", 0)

	var observer mclegal.StageObserver
	switch *progress {
	case "":
	case "text":
		observer = mclegal.NewLogObserver(stderr)
	case "json":
		observer = mclegal.NewJSONObserver(stderr)
	default:
		lg.Printf("-progress must be text or json, got %q", *progress)
		return exitUsage
	}
	policy, err := mclegal.ParseRecoveryPolicy(*recovery)
	if err != nil {
		lg.Print(err)
		return exitUsage
	}
	numShards, err := mclegal.ParseShards(*shards)
	if err != nil {
		lg.Print(err)
		return exitUsage
	}
	if *in == "" {
		fs.Usage()
		return exitUsage
	}

	f, err := os.Open(*in)
	if err != nil {
		lg.Print(err)
		return exitFailed
	}
	d, err := mclegal.ReadDesign(f)
	f.Close()
	if err != nil {
		lg.Print(err)
		return exitFailed
	}

	if *globalPlace {
		mclegal.GlobalPlace(d, mclegal.GPOptions{})
		fmt.Fprintf(stdout, "global placement  HPWL %d\n", mclegal.HPWL(d))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := mclegal.LegalizeContext(ctx, d, mclegal.Options{
		Routability:       *routability,
		TotalDisplacement: *total,
		Workers:           *workers,
		Shards:            numShards,
		SkipMaxDisp:       *skipMatch,
		SkipRefine:        *skipRefine,
		Delta0Rows:        *delta0,
		Observer:          observer,
		Verify:            *verify,
		Recovery:          policy,
	})
	for _, g := range res.Gates {
		fmt.Fprintf(stderr, "gate: %s\n", g.String())
	}
	if err != nil {
		var de *mclegal.DeadlineError
		if errors.As(err, &de) {
			lg.Printf("deadline exceeded: -timeout %v expired after %v of work", *timeout, de.Elapsed)
			return exitDeadline
		}
		var ge *mclegal.GateError
		if errors.As(err, &ge) {
			lg.Printf("stage %s failed its legality gate: %v", ge.Report.Stage, err)
		} else {
			lg.Print(err)
		}
		return exitFailed
	}
	// A partial result is by definition not verified legal; auditing it
	// would only repeat what Status already says.
	if res.Status != mclegal.StatusPartial {
		if v, err := mclegal.Audit(d); err != nil || len(v) > 0 {
			lg.Printf("result is not legal (%v): %v", err, v)
			return exitFailed
		}
	}

	fmt.Fprintf(stdout, "design           %s (%d cells)\n", d.Name, d.MovableCount())
	fmt.Fprintf(stdout, "status           %s\n", res.Status)
	if len(res.Shards) > 0 {
		fmt.Fprintf(stdout, "shards           %d regions, %d concurrent\n", len(res.Shards), numShards)
		for _, sh := range res.Shards {
			fmt.Fprintf(stdout, "  %-14s %d cells, %s\n", sh.Name, sh.Cells, sh.Status)
		}
	}
	fmt.Fprintf(stdout, "avg displacement %.4f rows\n", res.Metrics.AvgDisp)
	fmt.Fprintf(stdout, "max displacement %.1f rows\n", res.Metrics.MaxDisp)
	fmt.Fprintf(stdout, "total (sites)    %.0f\n", res.Metrics.TotalDispSites)
	fmt.Fprintf(stdout, "HPWL             %d -> %d\n", res.HPWLBefore, res.HPWLAfter)
	fmt.Fprintf(stdout, "pin violations   %d (short %d, access %d)\n",
		res.Violations.Pin(), res.Violations.PinShort, res.Violations.PinAccess)
	fmt.Fprintf(stdout, "edge violations  %d\n", res.Violations.EdgeSpacing)
	fmt.Fprintf(stdout, "contest score    %.4f\n", res.Score)
	fmt.Fprintf(stdout, "runtime          %v\n", res.Total)
	for _, tm := range res.Timings {
		fmt.Fprintf(stdout, "  %-14s %v\n", tm.Stage, tm.Duration)
	}

	if *out != "" {
		g, err := os.Create(*out)
		if err != nil {
			lg.Print(err)
			return exitFailed
		}
		if err := mclegal.WriteDesign(g, d); err != nil {
			g.Close()
			lg.Print(err)
			return exitFailed
		}
		if err := g.Close(); err != nil {
			lg.Print(err)
			return exitFailed
		}
	}

	switch res.Status {
	case mclegal.StatusLegal:
		return exitLegal
	case mclegal.StatusRecovered:
		return exitRecovered
	case mclegal.StatusPartial:
		return exitPartial
	}
	return exitLegal
}
