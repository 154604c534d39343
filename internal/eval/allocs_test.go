package eval_test

import (
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/flow"
	"mclegal/internal/seg"
	"mclegal/internal/testutil"
)

// The audit of a legal design allocates its row-slot list and nothing
// else: no per-row buckets, no sort closures.
func TestAuditAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates; counts are meaningless there")
	}
	var b bmark.Bench
	for _, c := range bmark.ContestBenches() {
		if c.Name == "fft_2_md2" {
			b = c
		}
	}
	d := bmark.ContestDesign(b, 0.01)
	if _, err := flow.Run(d, flow.Options{Routability: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if vs := eval.Audit(d, grid); len(vs) != 0 {
		t.Fatalf("legalized design has violations: %v", vs[0])
	}
	if allocs := testing.AllocsPerRun(10, func() { eval.Audit(d, grid) }); allocs != 1 {
		t.Errorf("Audit allocates %.1f times, want 1", allocs)
	}
}
