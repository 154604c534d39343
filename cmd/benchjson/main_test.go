package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	for _, tc := range [][]string{
		{"-mode", "bogus"},
		{"-workers", "zero,"},
		{"-workers", "0"},
		{"-mode", "shard", "-shards", "nope"},
		{"-mode", "shard", "-shards", "-1"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if code := run(tc, &out); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc, code)
		}
	}
}

// The mcf smoke sweep must survive its own cross-solver validation and
// produce a well-formed report: all three families, the fresh and
// reused simplex rows plus the two reference solvers, zero allocs on
// the reused simplex row, and an SSP row carrying its own (smaller)
// instance size.
func TestRunMCFSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark measurements")
	}
	var out bytes.Buffer
	if code := run([]string{"-mode", "mcf", "-smoke", "-out", "-"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep mcfReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if !rep.Smoke || len(rep.Families) != 3 || rep.CPUModel == "" {
		t.Fatalf("report = %+v", rep)
	}
	for _, fam := range rep.Families {
		if len(fam.Runs) != 4 {
			t.Errorf("%s: %d runs, want 4", fam.Family, len(fam.Runs))
		}
		if len(fam.Validation.Solvers) < 3 {
			t.Errorf("%s: only %v validated", fam.Family, fam.Validation.Solvers)
		}
		for _, r := range fam.Runs {
			if r.Mode == "cold-reused" && r.AllocsPerOp != 0 {
				t.Errorf("%s %s %s: %d allocs/op, want 0",
					fam.Family, r.Solver, r.Mode, r.AllocsPerOp)
			}
			if r.Solver == "ssp" && r.Nodes >= fam.Nodes {
				t.Errorf("%s: ssp row claims bench size %d", fam.Family, r.Nodes)
			}
		}
		if fam.ColdAllocs == 0 || fam.ReusedAllocs != 0 {
			t.Errorf("%s: cold %d / reused %d allocs/op, want >0 / 0",
				fam.Family, fam.ColdAllocs, fam.ReusedAllocs)
		}
	}
}

// A minimal shard sweep must produce a well-formed report with the
// per-shard breakdown and an honest per-run GOMAXPROCS.
func TestRunShardSweepToStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark measurement")
	}
	var out bytes.Buffer
	if code := run([]string{"-mode", "shard", "-shards", "1", "-scale", "0.002", "-out", "-"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep shardReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Runs) != 1 || rep.Runs[0].GOMAXPROCS < 1 || rep.Runs[0].Regions < 2 {
		t.Fatalf("report runs = %+v", rep.Runs)
	}
	if len(rep.Runs[0].Detail) != rep.Runs[0].Regions || rep.Runs[0].MaxShardNs == 0 {
		t.Errorf("missing per-shard breakdown: %+v", rep.Runs[0])
	}
}
