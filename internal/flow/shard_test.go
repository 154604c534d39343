package flow

import (
	"bytes"
	"strings"
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/faults"
	"mclegal/internal/mgl"
	"mclegal/internal/seg"
	"mclegal/internal/shard"
)

// Shards is a pure concurrency knob over a fixed decomposition:
// legalizing the same design with 1 and 4 concurrent shards must
// produce byte-identical placements. Run under -race via `make check`.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	base := bmark.Generate(bmark.Params{
		Name: "shard-det", Seed: 4217, Counts: [4]int{1100, 110, 24, 10},
		Density: 0.62, NumFences: 2, FenceFrac: 0.5, NetFrac: 0.4, IOPins: 12,
		Routability: true,
	})
	plan := shard.Options{SlabTargetCells: 250, MaxSlabUtil: 0.95}

	run := func(shards int) []byte {
		d := base.Clone()
		res, err := Run(d, Options{Routability: true, Workers: 1, Shards: shards, ShardPlan: plan})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.Shards) < 3 {
			t.Fatalf("shards=%d: plan has only %d regions, want fences plus slabs", shards, len(res.Shards))
		}
		var buf bytes.Buffer
		if err := bmark.Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	s1 := run(1)
	s4 := run(4)
	if !bytes.Equal(s1, s4) {
		t.Fatal("Shards=1 and Shards=4 placements are not byte-identical")
	}
}

// The merged sharded placement must be legal on the parent design —
// including across slab seams — and every shard must pass its own
// legality gates.
func TestShardedRunMergedPlacementIsLegal(t *testing.T) {
	d := bmark.Generate(bmark.Params{
		Name: "shard-legal", Seed: 99, Counts: [4]int{900, 90, 20, 8},
		Density: 0.6, NumFences: 2, FenceFrac: 0.5, NetFrac: 0.3,
	})
	res, err := Run(d, Options{
		Workers: 1, Shards: 2, Verify: true,
		ShardPlan: shard.Options{SlabTargetCells: 200, MaxSlabUtil: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 0 {
		t.Errorf("status = %v, want legal", res.Status)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if vs := eval.Audit(d, grid); len(vs) > 0 {
		t.Fatalf("merged placement has %d violations; first: %v", len(vs), vs[0])
	}
}

// A sharded run reports the per-shard breakdown: fence regions first,
// then slabs, with prefixed stage timings and summed top-level stats.
func TestShardedRunReportsPerShardOutcomes(t *testing.T) {
	d := bmark.Generate(bmark.Params{
		Name: "shard-report", Seed: 7, Counts: [4]int{700, 70, 16, 6},
		Density: 0.55, NumFences: 1, FenceFrac: 0.4, NetFrac: 0.3,
	})
	res, err := Run(d, Options{Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) < 2 {
		t.Fatalf("shards = %+v", res.Shards)
	}
	if !strings.HasPrefix(res.Shards[0].Name, "fence1-") {
		t.Errorf("first region %q, want the drawn fence", res.Shards[0].Name)
	}
	if res.Shards[len(res.Shards)-1].Name != "slab0" &&
		!strings.HasPrefix(res.Shards[len(res.Shards)-1].Name, "slab") {
		t.Errorf("last region %q, want a slab", res.Shards[len(res.Shards)-1].Name)
	}
	var cells int
	var sum mgl.Stats
	for _, sh := range res.Shards {
		cells += sh.Cells
		st := sh.MGLStats
		sum.Placed += st.Placed
		sum.WindowRetries += st.WindowRetries
		sum.QualityRetries += st.QualityRetries
		for a, c := range st.CommitAttempts {
			sum.CommitAttempts[a] += c
		}
		sum.Batches += st.Batches
		sum.SplitBatches += st.SplitBatches
		sum.SpeculativeRows += st.SpeculativeRows
		sum.Workers = max(sum.Workers, st.Workers)
		if len(sh.Timings) == 0 {
			t.Errorf("shard %s has no timings", sh.Name)
		}
	}
	if cells != d.MovableCount() {
		t.Errorf("shard cells sum to %d, want %d", cells, d.MovableCount())
	}
	if res.MGLStats != sum {
		t.Errorf("aggregated MGL stats %+v, per-shard sum %+v", res.MGLStats, sum)
	}
	for _, tm := range res.Timings {
		if !strings.Contains(tm.Stage, "/") {
			t.Errorf("timing %q lacks a shard prefix", tm.Stage)
		}
	}
}

// Sharded runs accept fault injection: every shard consults its own
// per-plan-index fork of the injector (independent deterministic hit
// counters), so Validate no longer rejects the combination. The
// sharded recovery behavior itself is covered in shard_faults_test.go.
func TestShardedRunAcceptsFaultInjection(t *testing.T) {
	opt := Options{Shards: 2, Faults: faults.New()}
	if err := opt.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want sharded fault injection accepted", err)
	}
}

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"3", 3, false},
		{"-1", 0, true},
		{"many", 0, true},
		{"1.5", 0, true},
	} {
		got, err := ParseShards(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseShards(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
	if n, err := ParseShards("auto"); err != nil || n < 1 {
		t.Errorf("ParseShards(auto) = %d, %v", n, err)
	}
	if opt := (Options{Shards: -1}); opt.Validate() == nil {
		t.Error("negative Shards validated")
	}
}
