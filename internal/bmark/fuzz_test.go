package bmark

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead drives the .mcl parser with arbitrary bytes. Invariants:
// the tokenizer splits every line, and the whole input, exactly as
// strings.Fields does; Read never panics or hangs; every error is
// prefixed "bmark:"; any input strict Read accepts is writable,
// re-readable, and write-stable, and Write renders it exactly as the
// fmt oracle does; and lenient mode accepts everything strict mode
// accepts.
func FuzzRead(f *testing.F) {
	for _, p := range []Params{
		{Name: "seed1", Seed: 1, Counts: [4]int{20, 4, 1, 1}, Density: 0.5,
			NumFences: 1, FenceFrac: 0.5, NetFrac: 0.5, IOPins: 2, Routability: true},
		{Name: "seed2", Seed: 2, Counts: [4]int{5, 0, 0, 0}, Density: 0.3},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, Generate(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(""))
	f.Add([]byte("MCLEGAL 1\nname x\n"))
	f.Add([]byte("MCLEGAL 1\nname x\ntech 10 80 40 4 0 0\nrails 0 0 0 0 0 0 0\nspacing -1\n"))
	f.Add([]byte("MCLEGAL 1\nname x\ntech 10 80 40 4 0 0\nrails 0 0 0 0 0 0 0\nspacing 0\ntypes 1\ntype #t 2 1 0 0 0\n"))
	f.Add([]byte("cells 99999999999999999999"))
	f.Add([]byte("# only a comment\n"))
	f.Add([]byte("MCLEGAL\u00a01\nname\u3000x\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range append(bytes.Split(data, []byte("\n")), data) {
			checkSplit(t, line)
		}
		d, err := ReadWithMode(bytes.NewReader(data), ModeStrict)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "bmark:") {
				t.Fatalf("error without bmark prefix: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("accepted design not writable: %v", err)
		}
		checkWriteMatchesOracle(t, d)
		d2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rewritten design rejected: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, d2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("write/read/write is not a fixed point")
		}
		if _, lerr := ReadWithMode(bytes.NewReader(data), ModeLenient); lerr != nil {
			t.Fatalf("lenient rejected strict-accepted input: %v", lerr)
		}
	})
}
