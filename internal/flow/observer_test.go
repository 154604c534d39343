package flow

import (
	"sync"
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/stage"
)

// eventLog records observer callbacks for assertions.
type eventLog struct {
	mu       sync.Mutex
	starts   []stage.StartEvent
	finishes []stage.FinishEvent
}

func (l *eventLog) StageStart(ev stage.StartEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.starts = append(l.starts, ev)
}

func (l *eventLog) StageFinish(ev stage.FinishEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.finishes = append(l.finishes, ev)
}

// An observer attached via Options receives start/finish events with
// non-zero durations and work counters for all three stages on a
// seeded contest benchmark.
func TestObserverEventsOnContestBench(t *testing.T) {
	b := bmark.ContestBenches()[9] // fft_a_md2, low density
	d := bmark.ContestDesign(b, 0.02)
	log := &eventLog{}
	res, err := Run(d, Options{Routability: true, Workers: 2, Observer: log})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{stage.NameMGL, stage.NameMaxDisp, stage.NameRefine}
	if len(log.starts) != 3 || len(log.finishes) != 3 {
		t.Fatalf("starts %d finishes %d", len(log.starts), len(log.finishes))
	}
	for i, name := range want {
		st, fin := log.starts[i], log.finishes[i]
		if st.Stage != name || fin.Stage != name {
			t.Errorf("event %d: stage %s/%s, want %s", i, st.Stage, fin.Stage, name)
		}
		if st.Index != i || st.Total != 3 {
			t.Errorf("%s: index %d/%d", name, st.Index, st.Total)
		}
		if st.Cells != d.MovableCount() {
			t.Errorf("%s: cells = %d", name, st.Cells)
		}
		if fin.Duration <= 0 {
			t.Errorf("%s: zero duration", name)
		}
		if fin.CellsPerSec <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
		if len(fin.Counters) == 0 {
			t.Errorf("%s: no counters", name)
		}
		if fin.Err != nil {
			t.Errorf("%s: unexpected error %v", name, fin.Err)
		}
	}
	if c := log.finishes[0].Counters["cells_placed"]; c != int64(d.MovableCount()) {
		t.Errorf("mgl cells_placed = %d, want %d", c, d.MovableCount())
	}
	ms := res.MGLStats
	for key, v := range map[string]int{
		"quality_retries":      ms.QualityRetries,
		"commit_attempt_0":     ms.CommitAttempts[0],
		"commit_attempt_3plus": ms.CommitAttempts[3],
		"split_batches":        ms.SplitBatches,
		"speculative_rows":     ms.SpeculativeRows,
	} {
		if c := log.finishes[0].Counters[key]; c != int64(v) {
			t.Errorf("mgl %s = %d, stats say %d", key, c, v)
		}
	}
	if log.finishes[1].Counters["matchings_solved"] != int64(res.MaxDispStats.Groups) {
		t.Errorf("matching counters diverge from stats")
	}
	if log.finishes[2].Counters["simplex_pivots"] != int64(res.RefineReport.Pivots) {
		t.Errorf("refine counters diverge from report")
	}
}
