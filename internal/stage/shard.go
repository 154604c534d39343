package stage

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mclegal/internal/model"
)

// Shard is one independent subproblem of a sharded run: a named
// subdesign whose movables are spatially disjoint from every other
// shard's (per-fence regions or blockage-confined die slabs, see
// internal/shard).
type Shard struct {
	Name string
	Sub  *model.Subdesign
	// Index is the shard's position in the plan. Builders that depend
	// on a stable per-shard identity — the fault-injection fork of a
	// sharded run keys its deterministic hit counters on it — must use
	// Index, never the order shards happen to be scheduled in.
	Index int
}

// ShardResult is the outcome of one shard's pipeline run.
type ShardResult struct {
	Shard   Shard
	Timings []Timing
	Report  RunReport
	// Err is the shard pipeline's error (nil on success). Cancellation
	// surfaces here as the context error.
	Err error
	// Context is the shard's pipeline context, for per-shard stats and
	// artifacts; nil when Make failed.
	Context *PipelineContext
}

// ShardedPipeline runs one full pipeline per shard on a bounded worker
// pool and merges the shard placements back into the parent design.
//
// Workers is a pure concurrency knob: shards are handed out and merged
// in index order, each shard's pipeline is deterministic on its own
// subdesign, and the subdesigns write disjoint cells of the parent —
// so the merged placement is byte-identical for any worker count.
type ShardedPipeline struct {
	// Workers bounds how many shards legalize concurrently; <=1 runs
	// them sequentially. The result never depends on it.
	Workers int
	// Make builds the pipeline and context legalizing one shard. It is
	// called from worker goroutines and must be safe for concurrent
	// use (each call builds fresh state for its own shard).
	Make func(Shard) (*Pipeline, *PipelineContext, error)
}

// Run legalizes every shard, merges the placements into parent, and
// aggregates the per-shard gate reports: the combined Status is the
// worst across shards and gate entries carry "shard/stage" names. The
// returned error is the first failing shard's (by index), wrapped with
// the shard name; cancellation is reported as the context error. The
// per-shard results are returned even on error so callers can see
// partial progress.
//
//mclegal:writes design.xy,hotcells,occupancy,stagectx each shard runs a full pipeline over its subdesign and the merge writes the parent's positions
func (sp *ShardedPipeline) Run(ctx context.Context, parent *model.Design, shards []Shard) ([]ShardResult, RunReport, error) {
	results := make([]ShardResult, len(shards))
	workers := sp.Workers
	if workers <= 1 || len(shards) <= 1 {
		for i := range shards {
			results[i] = sp.runOne(ctx, shards[i], nil)
		}
	} else {
		if workers > len(shards) {
			workers = len(shards)
		}
		// PR-3 pool shape: workers drain an index channel and write
		// into per-index slots; the feeder closes the channel and the
		// WaitGroup joins every goroutine on all return paths. Workers
		// keep draining after cancellation — runOne returns promptly
		// because the pipeline checks its context before each stage.
		var obsMu sync.Mutex
		work := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range work {
					results[i] = sp.runOne(ctx, shards[i], &obsMu)
				}
			}()
		}
		for i := range shards {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	agg := RunReport{Status: StatusLegal}
	var firstErr error
	for i := range results {
		r := &results[i]
		// Merge every shard, failed ones included: the subdesign always
		// holds a consistent placement (rolled back, fallback or
		// partial), matching what a monolithic run leaves behind.
		r.Shard.Sub.MergeBack(parent)
		if r.Report.Status > agg.Status {
			agg.Status = r.Report.Status
		}
		for _, g := range r.Report.Gates {
			g.Stage = r.Shard.Name + "/" + g.Stage
			agg.Gates = append(agg.Gates, g)
		}
		if r.Err != nil && firstErr == nil {
			if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
				firstErr = r.Err
			} else {
				firstErr = fmt.Errorf("shard %s: %w", r.Shard.Name, r.Err)
			}
		}
	}
	return results, agg, firstErr
}

func (sp *ShardedPipeline) runOne(ctx context.Context, sh Shard, obsMu *sync.Mutex) ShardResult {
	res := ShardResult{Shard: sh}
	p, pc, err := sp.Make(sh) //mclegal:writeset Make is the composer's shard-pipeline factory; it builds fresh state per shard and its product runs under the shard's own gates
	if err != nil {
		res.Err = fmt.Errorf("build pipeline: %w", err)
		return res
	}
	if p.Observer != nil {
		// Observers are written for one sequential pipeline; prefix
		// stage names with the shard and serialize callbacks across
		// concurrently running shards.
		p.Observer = &shardObserver{name: sh.Name, mu: obsMu, inner: p.Observer}
	}
	res.Context = pc
	res.Timings, res.Report, res.Err = p.RunWithReport(ctx, pc)
	return res
}

// shardObserver adapts a per-run observer for concurrent shard
// pipelines: stage names gain a "shard/" prefix and callbacks are
// serialized behind the pool-wide mutex (nil in sequential runs).
type shardObserver struct {
	name  string
	mu    *sync.Mutex
	inner Observer
}

func (o *shardObserver) StageStart(ev StartEvent) {
	ev.Stage = o.name + "/" + ev.Stage
	if o.mu != nil {
		o.mu.Lock()
		defer o.mu.Unlock()
	}
	o.inner.StageStart(ev)
}

func (o *shardObserver) StageFinish(ev FinishEvent) {
	ev.Stage = o.name + "/" + ev.Stage
	if o.mu != nil {
		o.mu.Lock()
		defer o.mu.Unlock()
	}
	o.inner.StageFinish(ev)
}
