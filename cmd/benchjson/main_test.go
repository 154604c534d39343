package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"mclegal/internal/analysis"
)

func TestRunUsageErrors(t *testing.T) {
	for _, tc := range [][]string{
		{},
		{"-mode", "bogus"},
		{"-mode", "mgl"},
		{"-mode", "shard"},
		{"-mode", "serve"},
		{"-workers", "2"},
		{"-shards", "2"},
		{"-scale", "0.01"},
		{"-no-such-flag"},
	} {
		var out bytes.Buffer
		if code := run(tc, &out); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc, code)
		}
	}
}

// The mcf smoke sweep must survive its own validation and produce a
// well-formed report: all three families, exactly the fresh and reused
// simplex rows, zero allocs on the reused row, and a certified simplex
// (plus the Hungarian cross-check on the assignment family).
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
		var modes []string
		for _, r := range fam.Runs {
			modes = append(modes, r.Mode)
		}
		if !slices.Equal(modes, []string{"cold-fresh", "cold-reused"}) {
			t.Errorf("%s: run modes %v, want [cold-fresh cold-reused]", fam.Family, modes)
		}
		if len(fam.Runs) == 2 && (fam.Runs[0].AllocsPerOp == 0 || fam.Runs[1].AllocsPerOp != 0) {
			t.Errorf("%s: fresh %d / reused %d allocs/op, want >0 / 0",
				fam.Family, fam.Runs[0].AllocsPerOp, fam.Runs[1].AllocsPerOp)
		}
		want := []string{"simplex"}
		if fam.Family == "assignment" {
			want = append(want, "matching/hungarian")
		}
		if !slices.Equal(fam.Validation.Solvers, want) {
			t.Errorf("%s: validated by %v, want %v", fam.Family, fam.Validation.Solvers, want)
		}
	}
}

// The vet sweep must time every analyzer of the suite, in suite order,
// over a non-empty program, and find the tree clean.
func TestRunVetToStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the scoped program")
	}
	var out bytes.Buffer
	if code := run([]string{"-mode", "vet", "-out", "-"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep vetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Packages == 0 {
		t.Errorf("packages = 0")
	}
	var got, want []string
	for _, r := range rep.Runs {
		got = append(got, r.Analyzer)
		if r.Diagnostics != 0 {
			t.Errorf("%s: %d diagnostics on the clean tree", r.Analyzer, r.Diagnostics)
		}
	}
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("analyzers = %v, want %v", got, want)
	}
}
