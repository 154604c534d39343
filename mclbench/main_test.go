package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the smoke test
// holds the benchmark to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSeedInputs checks that the seed fixes the inputs: the same seed
// gives byte-identical variants, another seed different ones, and the
// variants of one run differ from each other.
func TestSeedInputs(t *testing.T) {
	inputs := func(w workload, seed int64) [][]byte {
		b, err := newBench(w, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		return [][]byte{b.inst[0].in, b.inst[1].in}
	}
	for _, w := range workloads(runtime.NumCPU()) {
		a, again, other := inputs(w, 7), inputs(w, 7), inputs(w, 8)
		for k := range a {
			if !bytes.Equal(a[k], again[k]) {
				t.Errorf("%s: seed 7 gave different inputs for variant %d on two runs", w.name, k)
			}
			if bytes.Equal(a[k], other[k]) {
				t.Errorf("%s: seeds 7 and 8 gave the same input for variant %d", w.name, k)
			}
		}
		if bytes.Equal(a[0], a[1]) {
			t.Errorf("%s: variants 0 and 1 are identical", w.name)
		}
	}
}

// TestTracedMatchesUntraced checks the traced pass against the library
// path on every pipeline shape (ungated, gated with routability,
// sharded): byte-identical output, and spans that lie inside their
// request, in order, without overlapping.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"sparse-ispd", "dense-fenced", "fence-sharded"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newBench(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		in := b.inst[0]
		want, _, err := legalizeLib(in.in, in.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := newTracer()
		got, err := tr.legalizeTraced(in.in, in.opt)
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced output differs from the untraced output", name)
		}
		r := tr.reqs[0]
		prev := r.Start
		for _, s := range tr.spansOf(0) {
			if s.Start < prev || s.End < s.Start || s.End > r.End {
				t.Errorf("%s: span %s [%d, %d] overlaps its predecessor or leaves its request [%d, %d]",
					name, s.Name, s.Start, s.End, r.Start, r.End)
			}
			prev = s.End
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json for a few requests in
// both modes: every run is correct, fails nothing, and emits exactly
// the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, ws := range s.Workloads {
		w, err := findWorkload(ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			cfg := config{seed: 3, seconds: 0.05, trace: trace, setups: 1, variants: 2, outDir: t.TempDir()}
			res, _, err := runWorkload(w, cfg)
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: err %v, result %+v", w.name, trace, err, res)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no %s", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestRunOutput checks the command-line contract: the result is the
// last line of standard output, and bad arguments exit 2 without one.
func TestRunOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "sparse-ispd", "-seconds", "0.05", "-out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	out.Reset()
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
