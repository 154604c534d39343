package route_test

import (
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/flow"
	"mclegal/internal/route"
	"mclegal/internal/testutil"
)

// Counting the violations of a legal design allocates its row-slot
// list and nothing else: no per-row buckets, no sort closures.
func TestCountAllocs(t *testing.T) {
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
	if len(d.Tech.EdgeSpacing) == 0 {
		t.Fatal("suite design has no edge-spacing table to walk")
	}
	c := route.NewChecker(d)
	if allocs := testing.AllocsPerRun(10, func() { c.Count() }); allocs != 1 {
		t.Errorf("Count allocates %.1f times, want 1", allocs)
	}
}
