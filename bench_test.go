// Benchmarks regenerating (at reduced scale) every table and figure of
// the paper's evaluation, plus ablations of the design choices called
// out in DESIGN.md. The full-size printed tables come from
// cmd/experiments; these benches measure the same code paths under
// `go test -bench`.
package mclegal_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mclegal"
	"mclegal/internal/abacus"
	"mclegal/internal/baseline"
	"mclegal/internal/eval"
	"mclegal/internal/maxdisp"
	"mclegal/internal/mgl"
	"mclegal/internal/refine"
	"mclegal/internal/seg"
)

// benchScale keeps `go test -bench=.` tractable on one core; the
// cmd/experiments tool runs the suites at larger scales.
const benchScale = 0.01

// Representative picks: the densest, a fence-heavy one, a small one.
var table1Picks = []int{0, 8, 10, 14} // des_perf_1, fft_2_md2, fft_a_md3, pci_b_md2
var table2Picks = []int{4, 6, 13, 14} // fft_1, fft_a, pci_bridge32_a, pci_bridge32_b

var (
	contestOnce  sync.Once
	contestCache []*mclegal.Design
	ispdOnce     sync.Once
	ispdCache    []*mclegal.Design
)

func contestDesigns() []*mclegal.Design {
	contestOnce.Do(func() {
		bs := mclegal.ContestBenches()
		for _, i := range table1Picks {
			contestCache = append(contestCache, mclegal.ContestDesign(bs[i], benchScale))
		}
	})
	return contestCache
}

func ispdDesigns() []*mclegal.Design {
	ispdOnce.Do(func() {
		bs := mclegal.ISPDBenches()
		for _, i := range table2Picks {
			ispdCache = append(ispdCache, mclegal.ISPDDesign(bs[i], benchScale))
		}
	})
	return ispdCache
}

// BenchmarkTable1 regenerates the Table 1 comparison: the full
// routability-aware flow vs the contest-champion stand-in.
func BenchmarkTable1(b *testing.B) {
	ours := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var avg, max float64
			var pins int
			for i := 0; i < b.N; i++ {
				avg, max, pins = 0, 0, 0
				for _, base := range contestDesigns() {
					d := base.Clone()
					res, err := mclegal.Legalize(d, mclegal.Options{Routability: true, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					avg += res.Metrics.AvgDisp
					max += res.Metrics.MaxDisp
					pins += res.Violations.Pin()
				}
			}
			n := float64(len(contestDesigns()))
			b.ReportMetric(avg/n, "avgdisp/rows")
			b.ReportMetric(max/n, "maxdisp/rows")
			b.ReportMetric(float64(pins)/n, "pinviol/design")
		}
	}
	b.Run("ours", ours(1))
	b.Run("ours-numcpu", ours(runtime.NumCPU()))
	b.Run("champion", func(b *testing.B) {
		var avg, max float64
		var pins int
		for i := 0; i < b.N; i++ {
			avg, max, pins = 0, 0, 0
			for _, base := range contestDesigns() {
				d := base.Clone()
				if err := baseline.Champion(d, 1); err != nil {
					b.Fatal(err)
				}
				m := eval.Measure(d)
				avg += m.AvgDisp
				max += m.MaxDisp
				pins += mclegal.CountViolations(d).Pin()
			}
		}
		n := float64(len(contestDesigns()))
		b.ReportMetric(avg/n, "avgdisp/rows")
		b.ReportMetric(max/n, "maxdisp/rows")
		b.ReportMetric(float64(pins)/n, "pinviol/design")
	})
}

// BenchmarkTable2 regenerates the Table 2 comparison: total
// displacement of ours vs the three reimplemented baselines.
func BenchmarkTable2(b *testing.B) {
	type algo struct {
		name string
		run  func(*mclegal.Design) error
	}
	algos := []algo{
		{"MLLImp", func(d *mclegal.Design) error { return baseline.MLLImp(d, 1) }},
		{"AbacusExt", baseline.AbacusExt},
		{"ChenLike", baseline.ChenLike},
		{"ours", func(d *mclegal.Design) error {
			_, err := mclegal.Legalize(d, mclegal.Options{TotalDisplacement: true, Workers: 1})
			return err
		}},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, base := range ispdDesigns() {
					d := base.Clone()
					if err := a.run(d); err != nil {
						b.Fatal(err)
					}
					total += eval.Measure(d).TotalDispSites
				}
			}
			b.ReportMetric(total, "totaldisp/sites")
		})
	}
}

// BenchmarkTable3 regenerates the post-processing ablation.
func BenchmarkTable3(b *testing.B) {
	run := func(b *testing.B, skip bool) {
		var avg, max float64
		for i := 0; i < b.N; i++ {
			avg, max = 0, 0
			for _, base := range contestDesigns() {
				d := base.Clone()
				res, err := mclegal.Legalize(d, mclegal.Options{
					Routability: true, Workers: 1,
					SkipMaxDisp: skip, SkipRefine: skip,
				})
				if err != nil {
					b.Fatal(err)
				}
				avg += res.Metrics.AvgDisp
				max += res.Metrics.MaxDisp
			}
		}
		n := float64(len(contestDesigns()))
		b.ReportMetric(avg/n, "avgdisp/rows")
		b.ReportMetric(max/n, "maxdisp/rows")
	}
	b.Run("MGLOnly", func(b *testing.B) { run(b, true) })
	b.Run("FullFlow", func(b *testing.B) { run(b, false) })
}

// BenchmarkFigure6 measures the matching stage in isolation on an
// MGL-legalized placement (the before/after max-displacement series).
func BenchmarkFigure6(b *testing.B) {
	base := contestDesigns()[1].Clone()
	if _, err := mclegal.Legalize(base, mclegal.Options{
		Routability: true, Workers: 1, SkipMaxDisp: true, SkipRefine: true,
	}); err != nil {
		b.Fatal(err)
	}
	before := eval.Measure(base).MaxDisp
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		maxdisp.Optimize(d, maxdisp.Options{})
		after = eval.Measure(d).MaxDisp
	}
	b.ReportMetric(before, "maxdisp-before/rows")
	b.ReportMetric(after, "maxdisp-after/rows")
}

// BenchmarkAblationOrder compares MGL cell-ordering policies.
func BenchmarkAblationOrder(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    mgl.OrderPolicy
	}{
		{"TallestFirst", mgl.TallestFirst},
		{"GPLeftToRight", mgl.GPLeftToRight},
		{"WidestAreaFirst", mgl.WidestAreaFirst},
	} {
		b.Run(pol.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				d := contestDesigns()[1].Clone()
				res, err := mclegal.Legalize(d, mclegal.Options{
					Routability: true, Workers: 1,
					MGL: mgl.Options{Order: pol.p},
				})
				if err != nil {
					b.Fatal(err)
				}
				avg = res.Metrics.AvgDisp
			}
			b.ReportMetric(avg, "avgdisp/rows")
		})
	}
}

// BenchmarkAblationDelta0 sweeps the φ threshold of Eq. (3).
func BenchmarkAblationDelta0(b *testing.B) {
	base := contestDesigns()[1].Clone()
	if _, err := mclegal.Legalize(base, mclegal.Options{
		Routability: true, Workers: 1, SkipMaxDisp: true, SkipRefine: true,
	}); err != nil {
		b.Fatal(err)
	}
	for _, d0 := range []float64{2, 10, 40} {
		b.Run(map[float64]string{2: "d0=2", 10: "d0=10", 40: "d0=40"}[d0], func(b *testing.B) {
			var avg, max float64
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				maxdisp.Optimize(d, maxdisp.Options{Delta0Rows: d0})
				m := eval.Measure(d)
				avg, max = m.AvgDisp, m.MaxDisp
			}
			b.ReportMetric(avg, "avgdisp/rows")
			b.ReportMetric(max, "maxdisp/rows")
		})
	}
}

// BenchmarkAblationN0 sweeps the refinement's max-displacement weight.
func BenchmarkAblationN0(b *testing.B) {
	base := contestDesigns()[1].Clone()
	if _, err := mclegal.Legalize(base, mclegal.Options{
		Routability: true, Workers: 1, SkipRefine: true,
	}); err != nil {
		b.Fatal(err)
	}
	for _, n0 := range []int64{1, 32, 512} {
		b.Run(map[int64]string{1: "n0=1", 32: "n0=32", 512: "n0=512"}[n0], func(b *testing.B) {
			var avg, max float64
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				g2, _ := seg.Build(d)
				if _, err := refine.Optimize(d, g2, refine.Options{MaxDispWeight: n0}); err != nil {
					b.Fatal(err)
				}
				m := eval.Measure(d)
				avg, max = m.AvgDisp, m.MaxDisp
			}
			b.ReportMetric(avg, "avgdisp/rows")
			b.ReportMetric(max, "maxdisp/rows")
		})
	}
}

// BenchmarkAblationWindow sweeps the initial MGL window size.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{6, 16, 48} {
		b.Run(map[int]string{6: "w=6", 16: "w=16", 48: "w=48"}[w], func(b *testing.B) {
			var avg float64
			var retries int
			for i := 0; i < b.N; i++ {
				d := contestDesigns()[2].Clone()
				res, err := mclegal.Legalize(d, mclegal.Options{
					Routability: true, Workers: 1,
					MGL: mgl.Options{WindowW: w},
				})
				if err != nil {
					b.Fatal(err)
				}
				avg = res.Metrics.AvgDisp
				retries = res.MGLStats.WindowRetries
			}
			b.ReportMetric(avg, "avgdisp/rows")
			b.ReportMetric(float64(retries), "retries")
		})
	}
}

// BenchmarkAblationQualityGrowth isolates the quality-driven window
// growth: without it the bounded window horizon over-pays on sparse
// designs.
func BenchmarkAblationQualityGrowth(b *testing.B) {
	for _, qg := range []int{-1, 2, 6} {
		b.Run(map[int]string{-1: "off", 2: "qg=2", 6: "qg=6"}[qg], func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				d := ispdDesigns()[1].Clone()
				res, err := mclegal.Legalize(d, mclegal.Options{
					TotalDisplacement: true, Workers: 1,
					MGL: mgl.Options{QualityGrowths: qg},
				})
				if err != nil {
					b.Fatal(err)
				}
				total = res.Metrics.TotalDispSites
			}
			b.ReportMetric(total, "totaldisp/sites")
		})
	}
}

// BenchmarkAblationRefineVsAbacus compares the paper's linear-objective
// MCF refinement against the classic quadratic Abacus clustering
// (reference [8]) as the final x-shift pass.
func BenchmarkAblationRefineVsAbacus(b *testing.B) {
	base := ispdDesigns()[0].Clone()
	if _, err := mclegal.Legalize(base, mclegal.Options{
		TotalDisplacement: true, Workers: 1, SkipRefine: true,
	}); err != nil {
		b.Fatal(err)
	}
	b.Run("refineMCF", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			d := base.Clone()
			g, err := seg.Build(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := refine.Optimize(d, g, refine.Options{Weights: refine.WeightUniform}); err != nil {
				b.Fatal(err)
			}
			total = eval.Measure(d).TotalDispSites
		}
		b.ReportMetric(total, "totaldisp/sites")
	})
	b.Run("abacus", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			d := base.Clone()
			g, err := seg.Build(d)
			if err != nil {
				b.Fatal(err)
			}
			abacus.RefineRows(d, g)
			total = eval.Measure(d).TotalDispSites
		}
		b.ReportMetric(total, "totaldisp/sites")
	})
}

// mglThroughputRun is the shared body of the throughput benches: one
// MGL-only legalization of base per iteration at opt plus workers,
// reporting cells/sec so worker counts are comparable at a glance.
func mglThroughputRun(b *testing.B, base *mclegal.Design, opt mclegal.Options, workers int) {
	b.Helper()
	opt.Workers, opt.SkipMaxDisp, opt.SkipRefine = workers, true, true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if _, err := mclegal.Legalize(d, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cells := float64(base.MovableCount())
	b.ReportMetric(cells, "cells")
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkMGLThroughput measures raw legalization throughput
// (cells/second) on a moderate-density instance, serial and at the
// machine's core count. Results are byte-identical across worker
// counts (see docs/PERFORMANCE.md); only the wall clock changes.
func BenchmarkMGLThroughput(b *testing.B) {
	base, opt := ispdDesigns()[1], mclegal.Options{TotalDisplacement: true} // fft_a
	b.Run("workers=1", func(b *testing.B) { mglThroughputRun(b, base, opt, 1) })
	b.Run("workers=numcpu", func(b *testing.B) { mglThroughputRun(b, base, opt, runtime.NumCPU()) })
}

// BenchmarkWorkersSweep sweeps the MGL worker count on fft_a, whose
// batches mostly hold more windows than there are workers, and on the
// request benchmark's dense-fenced instance (contest fft_2_md2 with
// routability rules), whose batches mostly hold one window that the
// workers split into row tasks. It is the only worker-count sweep: the
// request benchmark (mclbench) runs each workload at one fixed count.
func BenchmarkWorkersSweep(b *testing.B) {
	for _, inst := range []struct {
		name string
		base *mclegal.Design
		opt  mclegal.Options
	}{
		{"fft_a", ispdDesigns()[1], mclegal.Options{TotalDisplacement: true}},
		{"fft_2_md2", contestDesigns()[1], mclegal.Options{Routability: true}},
	} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", inst.name, w), func(b *testing.B) { mglThroughputRun(b, inst.base, inst.opt, w) })
		}
	}
}
