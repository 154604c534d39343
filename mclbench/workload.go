package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"mclegal/internal/bmark"
	"mclegal/internal/flow"
	"mclegal/internal/model"
	"mclegal/internal/shard"
	"mclegal/internal/stage"
)

// defaultSeed is the -seed used when none is given; it is recorded in
// every result.
const defaultSeed = 1

// jitterSites bounds the seeded GP jitter that makes a design variant:
// the workload's suite instance with every movable cell's GP position
// moved by up to jitterSites sites. The suite instance fixes the
// structure (library, fences, hotspots, nets) and the run seed only
// moves cells: reseeding the generator itself changes a design's
// difficulty too much to measure (across generator seeds one
// sparse-ispd request took 21 to 125 ms, and shard_s scored S from 3.3
// to 30.7; README.md). Averaging over many variants keeps a run's
// figures steady from one seed to the next.
const jitterSites = 2

// workload is one named request mix.
type workload struct {
	name string
	// params returns the generator parameters of the suite instance.
	params func() bmark.Params
	// opt is the pipeline configuration of every legalize request.
	opt flow.Options
	// clients is the number of closed-loop clients of the timed phase.
	clients int
	// variants is how many design variants a run cycles through, each
	// at least once per phase. A variant's latency depends on its
	// seed, so a workload takes as many as a run has time for.
	variants int
	// serve routes requests through an in-process mclegald (HTTP on
	// loopback) and mixes read requests into every client's loop.
	serve bool
}

// workloads returns the benchmark's workloads; nproc is the evaluation
// worker count of the workloads that use every CPU. README.md gives
// the reason for each.
func workloads(nproc int) []workload {
	return []workload{
		{
			name:     "sparse-ispd",
			params:   func() bmark.Params { return ispdParams(findBench(bmark.ISPDBenches(), "fft_a"), 0.02) },
			opt:      flow.Options{TotalDisplacement: true, Workers: nproc},
			clients:  1,
			variants: 64,
		},
		{
			name:   "dense-fenced",
			params: func() bmark.Params { return contestParams(findBench(bmark.ContestBenches(), "fft_2_md2"), 0.01) },
			opt: flow.Options{
				Routability: true, Workers: nproc,
				Verify: true, Recovery: stage.RecoverFallback,
			},
			clients:  1,
			variants: 16,
		},
		{
			name:   "fence-sharded",
			params: func() bmark.Params { return shardParams(findBench(bmark.ShardBenches(), "shard_s"), 0.01) },
			opt: flow.Options{
				Workers: 1, Shards: 2,
				// SlabTargetCells is set per design to movables/4+1: the
				// forced multi-slab plan of BENCH_shard.json.
				ShardPlan: shard.Options{MaxSlabUtil: 0.95},
			},
			clients:  1,
			variants: 48,
		},
		{
			name:   "serve-mixed",
			params: func() bmark.Params { return ispdParams(findBench(bmark.ISPDBenches(), "fft_a"), 0.02) },
			// The server's defaults: gates on, fallback recovery; one
			// evaluation worker per request.
			opt:      flow.Options{Workers: 1, Verify: true, Recovery: stage.RecoverFallback},
			clients:  2,
			variants: 64,
			serve:    true,
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads(runtime.NumCPU()) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func findBench(list []bmark.Bench, name string) bmark.Bench {
	for _, b := range list {
		if b.Name == name {
			return b
		}
	}
	panic("mclbench: no suite bench " + name)
}

// The three parameter builders mirror bmark.ISPDDesign, ContestDesign
// and ShardDesign, which return only the generated design.

func ispdParams(b bmark.Bench, scale float64) bmark.Params {
	return bmark.Params{
		Name:    b.Name,
		Seed:    nameSeed(b.Name) ^ 0x5f5f,
		Counts:  scaleCounts(b.Counts, scale),
		Density: b.Density,
		NetFrac: 0.5,
	}
}

func contestParams(b bmark.Bench, scale float64) bmark.Params {
	return bmark.Params{
		Name:        b.Name,
		Seed:        nameSeed(b.Name),
		Counts:      scaleCounts(b.Counts, scale),
		Density:     b.Density,
		NumFences:   b.Fences,
		FenceFrac:   0.6,
		NetFrac:     0.5,
		IOPins:      32,
		Routability: true,
	}
}

func shardParams(b bmark.Bench, scale float64) bmark.Params {
	return bmark.Params{
		Name:      b.Name,
		Seed:      nameSeed(b.Name) ^ 0x5ad5,
		Counts:    scaleCounts(b.Counts, scale),
		Density:   b.Density,
		NumFences: b.Fences,
		FenceFrac: 0.5,
		NetFrac:   0.3,
		IOPins:    32,
		Macros:    b.Fences / 2,
	}
}

// scaleCounts shrinks published cell counts by scale with the same
// floors as the suite generators.
func scaleCounts(c [4]int, scale float64) [4]int {
	var out [4]int
	for i := range c {
		out[i] = int(float64(c[i]) * scale)
	}
	if out[0] < 400 && c[0] > 0 {
		out[0] = 400
	}
	for i := 1; i < 4; i++ {
		if c[i] > 0 && out[i] < 24 {
			out[i] = 24
		}
	}
	return out
}

// nameSeed is the suites' stable per-benchmark seed (FNV-1a of the
// name).
func nameSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// variantSeed mixes the run seed and the variant index into the
// instance's generator seed (splitmix64 finalizer), so neighbouring
// seeds give unrelated perturbations.
func variantSeed(base, seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return (base ^ int64(z)) & (1<<62 - 1)
}

// jitter moves every movable cell's GP position (and its input
// position, which starts at GP) by up to jitterSites sites in x,
// clamped to the core, drawing the offsets from seed.
func jitter(d *model.Design, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		x := c.GX + rng.Intn(2*jitterSites+1) - jitterSites
		x = max(0, min(x, d.Tech.NumSites-d.Types[c.Type].Width))
		c.GX, c.X = x, x
	}
}
