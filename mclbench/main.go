// Command mclbench is mclegal's request benchmark. It runs one named
// workload of closed-loop legalize requests over generated .mcl inputs
// and prints every metric by name and unit, as one JSON object on the
// last line of standard output:
//
//	mclbench -workload sparse-ispd -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced timed
// phase. With -trace 1 it drives the same layers one call at a time
// instead, records a span per layer call, writes the spans under
// <out>/spans/ and reports the per-layer breakdown. Every request's
// output is checked; a wrong answer fails the run rather than
// producing a number. README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-up repetitions; setup_s is their median
	variants int
	outDir   string
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mclbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sparse-ispd, dense-fenced, fence-sharded or serve-mixed")
	seed := fs.Int64("seed", defaultSeed, "seed of the design variants")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced per-layer pass; 0: untraced end-to-end metrics")
	root := fs.String("root", ".", "repository root, hashed into the stamp")
	out := fs.String("out", ".bench_build", "directory for span files")
	commit := fs.String("commit", "", "git commit of the code under test, if known")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mclbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 9, variants: w.variants, outDir: *out,
	}

	absRoot, _ := filepath.Abs(*root)
	stamp := map[string]any{
		"workload":      w.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         *trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"git_commit":    *commit,
		"source_sha256": sourceHash(absRoot, filepath.Join(absRoot, "mclbench")),
		"workers":       w.opt.Workers,
		"shards":        w.opt.Shards,
		"clients":       w.clients,
		"variants":      cfg.variants,
	}
	if w.serve {
		stamp["request_mix"] = "assumed operator traffic: each client loops legalize, evaluate, audit"
	}
	res, info, err := runWorkload(w, cfg)
	for k, v := range info {
		stamp[k] = v
	}
	line, _ := json.Marshal(stamp)
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintf(stderr, "mclbench: %s: %v\n", w.name, err)
		res.Correct, res.Metrics = false, map[string]metric{}
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// phase is what one measured phase observed.
type phase struct {
	legalize, reads   []float64 // latencies, ms
	attempted, failed int
	elapsed           time.Duration
	allocBytes        uint64
	peakRSS           float64 // MiB, sampled after every request
	gcCount           uint64
	gcPauseNs         uint64
	err               error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.err == nil {
		p.err = err
	}
}

// add counts p's requests into res and returns p's first error.
func (p *phase) add(res *result) error {
	res.Attempted += p.attempted
	res.Failed += p.failed
	return p.err
}

// runWorkload sets the workload up, runs its phases and computes the
// metrics of the requested mode. info carries per-run facts for the
// stamp line.
func runWorkload(w workload, cfg config) (result, map[string]any, error) {
	info := map[string]any{}
	res := result{Metrics: map[string]metric{}}

	// Set-up: generate and serialize every variant, start the server.
	// Repeated from a collected heap; setup_s is the median. The
	// warm-up request after it is not timed: its latency is that of one
	// seed-dependent variant, which latency_p50_ms already measures.
	var setupS []float64
	var b *bench
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = newBench(w, cfg.seed, cfg.variants); err != nil {
			return res, info, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()
	if err := b.legalizeOnce(b.inst[0]); err != nil {
		return res, info, fmt.Errorf("warm-up: %w", err)
	}
	info["setup_runs_s"] = setupS
	info["input_bytes"] = len(b.inst[0].in)

	if w.serve {
		// The read requests target a legalized resident copy of every
		// variant, made through the library (and so checked against the
		// HTTP warm-up's bytes).
		for _, in := range b.inst {
			out, r, err := legalizeLib(in.in, in.opt)
			if err == nil {
				err = in.accept(out, &r)
			}
			if err == nil {
				err = in.verify()
			}
			if err != nil {
				return res, info, fmt.Errorf("variant %s: %w", in.name, err)
			}
			b.srv.AddDesign(in.name, in.resident)
		}
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	untracedDur := total
	if cfg.trace {
		// A short untraced phase gives the reference bytes and the
		// untraced latency the tracing overhead is measured against.
		untracedDur = total * 3 / 10
	}
	p := b.timed(untracedDur, w.clients, w.serve)
	if err := p.add(&res); err != nil {
		return res, info, err
	}
	var cells []int
	for _, in := range b.inst {
		if err := in.verify(); err != nil {
			return res, info, err
		}
		cells = append(cells, in.resident.MovableCount())
	}
	info["cells"] = cells
	info["requests"] = len(p.legalize)
	// Stamped, not a metric: on this benchmark's 2-CPU reference host the
	// p90 moved by a third between seeds on fence-sharded (README.md).
	info["latency_p90_ms"] = quantile(p.legalize, 0.9)

	if !cfg.trace {
		res.Metrics = endToEnd(b, p, median(setupS))
		res.Correct = true
		return res, info, nil
	}

	solo, lib, tracedDur := p, p, total-untracedDur
	if w.serve {
		pairedDur := total * 3 / 10
		solo, lib = b.paired(pairedDur)
		if err := solo.add(&res); err != nil {
			return res, info, err
		}
		if err := lib.add(&res); err != nil {
			return res, info, err
		}
		tracedDur -= pairedDur
	}
	t := newTracer()
	tp := b.traced(t, tracedDur)
	if err := tp.add(&res); err != nil {
		return res, info, err
	}
	dir := filepath.Join(cfg.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, info, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := t.write(path); err != nil {
		return res, info, err
	}
	info["spans_file"] = path
	info["traced_requests"] = len(t.reqs)
	m, err := perLayer(b, t, tp, p, solo, lib)
	if err != nil {
		return res, info, err
	}
	res.Metrics = m
	res.Correct = true
	return res, info, nil
}

// timed runs clients closed-loop clients for dur and at least until
// every variant has been requested once. Requests take the variants in
// turn. With reads (serve workloads only), every legalize is followed
// by an evaluate and an audit of the same variant's resident legalized
// design.
func (b *bench) timed(dur time.Duration, clients int, reads bool) phase {
	var mu sync.Mutex
	var p phase
	record := func(lat *[]float64, t0 time.Time, err error) {
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		p.peakRSS = max(p.peakRSS, rssMB())
		if err != nil {
			p.fail(err)
			return
		}
		*lat = append(*lat, ms(d))
	}

	var next atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(b.inst) && !time.Now().Before(deadline) {
					return
				}
				in := b.inst[n%len(b.inst)]
				t0 := time.Now()
				err := b.legalizeOnce(in)
				record(&p.legalize, t0, err)
				if !reads || err != nil {
					continue
				}
				for _, kind := range []string{"evaluate", "audit"} {
					t0 := time.Now()
					err := b.readHTTP(kind, in)
					record(&p.reads, t0, err)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// paired is the measurement behind serve.overhead_frac on a serve
// workload: one client alternates an HTTP and a library legalize
// request of the same variant, same bytes and options, for dur and
// every variant at least once. Alternating puts both sides under the
// same host conditions.
func (b *bench) paired(dur time.Duration) (overHTTP, lib phase) {
	deadline := time.Now().Add(dur)
	for i := 0; i < len(b.inst) || time.Now().Before(deadline); i++ {
		in := b.inst[i%len(b.inst)]
		t0 := time.Now()
		overHTTP.note(t0, b.legalizeOnce(in))
		t0 = time.Now()
		out, r, err := legalizeLib(in.in, in.opt)
		if err == nil {
			err = in.accept(out, &r)
		}
		lib.note(t0, err)
	}
	return overHTTP, lib
}

// note records one legalize request that started at t0.
func (p *phase) note(t0 time.Time, err error) {
	p.attempted++
	if err != nil {
		p.fail(err)
		return
	}
	p.legalize = append(p.legalize, ms(time.Since(t0)))
}

// traced runs traced legalize requests for dur, one client, every
// variant at least once; on serve workloads each is followed by an
// evaluate and an audit of the variant's resident design. Every traced
// legalize must return the reference bytes and score.
func (b *bench) traced(t *tracer, dur time.Duration) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; i < len(b.inst) || time.Now().Before(deadline); i++ {
		in := b.inst[i%len(b.inst)]
		out, err := t.legalizeTraced(in.in, in.opt)
		if err == nil {
			err = in.accept(out, nil)
		}
		if got := t.reqs[len(t.reqs)-1].counts.score; err == nil && got != in.want.Score {
			err = fmt.Errorf("variant %s scored %v, want %v", in.name, got, in.want.Score)
		}
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("traced: %w", err))
			continue
		}
		if !b.w.serve {
			continue
		}
		for _, kind := range []string{"evaluate", "audit"} {
			p.attempted++
			if err := t.readTraced(kind, in); err != nil {
				p.fail(fmt.Errorf("traced: %w", err))
			}
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.gcCount = uint64(m1.NumGC - m0.NumGC)
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return p
}

// endToEnd computes the untraced metrics. Quality metrics are means
// over the variants.
func endToEnd(b *bench, p phase, setup float64) map[string]metric {
	done := len(p.legalize) + len(p.reads)
	var avg, maxd, score, hpwl []float64
	for _, in := range b.inst {
		r := in.want
		avg = append(avg, r.Metrics.AvgDisp)
		maxd = append(maxd, r.Metrics.MaxDisp)
		score = append(score, r.Score)
		hpwl = append(hpwl, 100*float64(r.HPWLAfter-r.HPWLBefore)/float64(r.HPWLBefore))
	}
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"latency_p50_ms":   {median(p.legalize), "ms"},
		"req_per_s":        {float64(done) / p.elapsed.Seconds(), "1/s"},
		"alloc_mb_per_req": {float64(p.allocBytes) / float64(done) / (1 << 20), "MB"},
		"peak_rss_mb":      {p.peakRSS, "MB"},
		"avg_disp_rows":    {mean(avg), "rows"},
		"max_disp_rows":    {mean(maxd), "rows"},
		"score_s":          {mean(score), "score"},
		"hpwl_delta_pct":   {mean(hpwl), "%"},
	}
}

// perLayer computes the traced metrics: per-layer medians over the
// traced legalize requests (serve.clone_ms over the traced read
// requests), the work counters, the unaccounted residual and the
// tracing overhead. untraced is the run's untraced phase; solo and lib
// are the paired HTTP and library legalize requests of a serve
// workload, and the untraced phase elsewhere. Layer times that only
// some workloads have are reported as shares of the traced request, so
// that no time metric is a constant 0.
func perLayer(b *bench, t *tracer, tp, untraced, solo, lib phase) (map[string]metric, error) {
	type row map[string]float64
	var legal, reads []row
	for i := range t.reqs {
		r := &t.reqs[i]
		reqMs := float64(r.End-r.Start) / 1e6
		x := row{"total": reqMs}
		regions := map[int]float64{}
		var covered float64
		for _, s := range t.spansOf(i) {
			d := float64(s.End-s.Start) / 1e6
			x[s.Name] += d
			covered += d
			if s.Allocs >= 0 {
				mod := s.Name[:strings.IndexByte(s.Name, '.')]
				x[mod+".allocs"] += float64(s.Allocs)
				x[mod+".alloc_kb"] += float64(s.Bytes) / 1024
			}
			if s.Region >= 0 {
				regions[s.Region] += d
			}
		}
		if covered > reqMs+1e-6 {
			return nil, fmt.Errorf("trace: request %d spans cover %.3f of %.3f ms; spans overlap", i, covered, reqMs)
		}
		if r.Kind != "legalize" {
			reads = append(reads, x)
			continue
		}
		x["unaccounted"] = reqMs - covered
		c := r.counts
		x["mgl.placed"] = float64(c.mgl.Placed)
		x["mgl.window_retries"] = float64(c.mgl.WindowRetries)
		x["mgl.batches"] = float64(c.mgl.Batches)
		x["maxdisp.groups"] = float64(c.maxdisp.Groups)
		x["maxdisp.swapped"] = float64(c.maxdisp.Swapped)
		if c.maxdisp.CostBefore > 0 {
			x["maxdisp.phi_gain_pct"] = 100 * float64(c.maxdisp.CostBefore-c.maxdisp.CostAfter) / float64(c.maxdisp.CostBefore)
		}
		x["refine.nodes"] = float64(c.refine.Nodes)
		x["refine.arcs"] = float64(c.refine.Arcs)
		x["refine.pivots"] = float64(c.refine.Pivots)
		x["refine.moved"] = float64(c.refine.Moved)
		x["refine.solve"] = float64(c.refine.SolveNs) / 1e6
		x["route.pin_violations"] = float64(c.viol.Pin())
		x["route.edge_violations"] = float64(c.viol.EdgeSpacing)
		x["shard.regions"] = float64(c.regions)
		if n := len(regions); n > 0 {
			var mx, sum float64
			for _, v := range regions {
				mx = max(mx, v)
				sum += v
			}
			x["shard.region_max"] = mx
			x["shard.region_sum"] = sum
			x["shard.imbalance"] = mx / (sum / float64(n))
		}
		legal = append(legal, x)
	}
	if len(legal) == 0 || (b.w.serve && len(reads) == 0) {
		return nil, errors.New("trace: no traced legalize or read request")
	}
	med := func(rows []row, key string) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r[key])
		}
		return median(xs)
	}
	L := func(key string) float64 { return med(legal, key) }
	R := func(key string) float64 { return med(reads, key) }
	share := func(key string) float64 {
		var xs []float64
		for _, r := range legal {
			xs = append(xs, r[key]/r["total"])
		}
		return median(xs)
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("mgl.run_ms", L("mgl.run"), "ms")
	set("mgl.new_ms", L("mgl.new"), "ms")
	set("mgl.window_retries", L("mgl.window_retries"), "count")
	set("mgl.retry_ratio", L("mgl.window_retries")/L("mgl.placed"), "ratio")
	set("mgl.placed", L("mgl.placed"), "count")
	set("mgl.batches", L("mgl.batches"), "count")
	set("mgl.allocs", L("mgl.allocs"), "count")
	set("mgl.alloc_kb", L("mgl.alloc_kb"), "KiB")

	set("maxdisp.run_ms", L("maxdisp.run"), "ms")
	set("maxdisp.groups", L("maxdisp.groups"), "count")
	set("maxdisp.swapped", L("maxdisp.swapped"), "count")
	set("maxdisp.phi_gain_pct", L("maxdisp.phi_gain_pct"), "%")
	set("maxdisp.alloc_kb", L("maxdisp.alloc_kb"), "KiB")

	set("refine.run_ms", L("refine.run"), "ms")
	set("refine.solve_ms", L("refine.solve"), "ms")
	set("refine.build_ms", L("refine.run")-L("refine.solve"), "ms")
	set("refine.nodes", L("refine.nodes"), "count")
	set("refine.arcs", L("refine.arcs"), "count")
	set("refine.pivots", L("refine.pivots"), "count")
	set("refine.pivots_per_arc", L("refine.pivots")/max(L("refine.arcs"), 1), "ratio")
	set("refine.moved", L("refine.moved"), "count")
	set("refine.alloc_kb", L("refine.alloc_kb"), "KiB")

	set("bmark.read_ms", L("bmark.read"), "ms")
	set("bmark.write_ms", L("bmark.write"), "ms")
	set("bmark.input_kb", float64(len(b.inst[0].in))/1024, "KiB")
	set("seg.build_ms", L("seg.build"), "ms")
	set("route.setup_ms", L("route.setup"), "ms")
	set("route.count_ms", L("route.count"), "ms")
	set("route.pin_violations", L("route.pin_violations"), "count")
	set("route.edge_violations", L("route.edge_violations"), "count")
	set("eval.audit_ms", L("eval.audit"), "ms")
	set("eval.measure_ms", L("eval.measure"), "ms")

	set("stage.gate_frac", share("stage.gate"), "ratio")

	set("shard.plan_frac", share("shard.plan"), "ratio")
	set("shard.split_frac", share("shard.split"), "ratio")
	set("shard.merge_frac", share("shard.merge"), "ratio")
	set("shard.regions", L("shard.regions"), "count")
	set("shard.region_max_frac", share("shard.region_max"), "ratio")
	set("shard.region_sum_frac", share("shard.region_sum"), "ratio")
	set("shard.imbalance", L("shard.imbalance"), "ratio")
	untracedP50 := median(lib.legalize)
	parEff, overhead := 0.0, 0.0
	if s := b.w.opt.Shards; s > 0 {
		parEff = L("shard.region_sum") / (float64(s) * median(untraced.legalize))
	}
	if b.w.serve {
		overhead = median(solo.legalize)/untracedP50 - 1
	}
	set("shard.parallel_eff", parEff, "ratio")
	set("serve.overhead_frac", overhead, "ratio")
	set("serve.read_p50_ms", median(untraced.reads), "ms")
	set("serve.clone_ms", R("serve.clone"), "ms")

	n := float64(tp.attempted)
	set("runtime.gc_per_req", float64(tp.gcCount)/n, "count")
	set("runtime.gc_pause_ms", float64(tp.gcPauseNs)/1e6/n, "ms")

	set("flow.traced_ms", L("total"), "ms")
	set("flow.untraced_ms", untracedP50, "ms")
	set("flow.trace_overhead_pct", 100*(L("total")/untracedP50-1), "%")
	set("flow.unaccounted_ms", L("unaccounted"), "ms")
	set("flow.unaccounted_frac", share("unaccounted"), "ratio")
	return m, nil
}
