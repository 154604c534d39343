package bmark

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"mclegal/internal/model"
)

// checkSplit fails t unless splitFields splits line exactly as
// strings.Fields(strings.TrimSpace(line)) does.
func checkSplit(t *testing.T, line []byte) {
	t.Helper()
	want := strings.Fields(strings.TrimSpace(string(line)))
	got := splitFields(nil, line)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = string(got[i]) == want[i]
	}
	if !same {
		t.Fatalf("splitFields(%q) = %q, want %q", line, got, want)
	}
}

// suiteDesigns returns every suite design at scale 0.01.
func suiteDesigns() []*model.Design {
	var ds []*model.Design
	for _, b := range ContestBenches() {
		ds = append(ds, ContestDesign(b, 0.01))
	}
	for _, b := range ISPDBenches() {
		ds = append(ds, ISPDDesign(b, 0.01))
	}
	for _, b := range ShardBenches() {
		ds = append(ds, ShardDesign(b, 0.01))
	}
	return ds
}

// The tokenizer splits every line of every suite design, and lines
// with each kind of white space strings.Fields knows, exactly as
// strings.Fields does.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	for _, d := range suiteDesigns() {
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			checkSplit(t, line)
		}
	}
	for _, line := range []string{
		"", " ", "\t\r\v\f \n", "# comment", "  #c 1",
		"cell\tc1 0\t0 ", "cell c1 0 0\r", "\vcell\fc1\r\n1",
		"cell\u0085c1 1", "\u0085# comment", "cell c1 2 ",
		"　cell　c1　", "x y z", "né 1\té",
		"a\x80b c", "\xff\xfe a", "a \xe3\x80", "\x1c\x1d\x1e\x1f \x00",
	} {
		checkSplit(t, []byte(line))
	}
}

// readAllocBound is the most allocations Read may make for d: one per
// name, one per non-empty pin, rect or pinref list and per spacing row,
// one per section, and a constant for the parser, its scanner and
// field slice, and the design.
func readAllocBound(d *model.Design) int {
	nonEmpty := func(n int) int { return min(n, 1) }
	n := 24 + len(d.Tech.EdgeSpacing) + len(d.IOPins)
	for _, ct := range d.Types {
		n += 1 + len(ct.Pins) + nonEmpty(len(ct.Pins))
	}
	for _, f := range d.Fences {
		n += 1 + nonEmpty(len(f.Rects))
	}
	n += len(d.Cells)
	for _, net := range d.Nets {
		n += 1 + nonEmpty(len(net.Pins))
	}
	return n
}

// Read allocates in proportion to the design's objects, not its lines:
// the names and the lists it returns, plus a constant. Pinref, rect and
// comment lines cost nothing, so the bound sits below the line count.
func TestReadAllocsScaleWithObjects(t *testing.T) {
	for _, d := range []*model.Design{
		ISPDDesign(ISPDBenches()[0], 0.02),
		ContestDesign(ContestBenches()[9], 0.02),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		data := append([]byte("# leading comment\n\n"), buf.Bytes()...)
		lines := bytes.Count(data, []byte("\n"))
		bound := readAllocBound(d)
		if bound >= lines {
			t.Fatalf("%s: bound %d is not below the %d lines; the gate cannot tell", d.Name, bound, lines)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		if int(allocs) > bound {
			t.Errorf("%s: Read allocates %.0f times for %d lines, want at most %d", d.Name, allocs, lines, bound)
		}
	}
}

// A forged section count cannot make Read allocate for items the body
// never holds: a cells header of two billion followed by one cell line
// fails with the short body's error, after well under 1 MiB.
func TestReadForgedCountAllocatesLittle(t *testing.T) {
	lines := strings.Split(string(limitsBench(t)), "\n")
	k := 0
	for !strings.HasPrefix(lines[k], "cells ") {
		k++
	}
	data := strings.Join(append(lines[:k:k], "cells 2000000000", lines[k+1], ""), "\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(data))
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf("bmark: line %d: %v", k+2, io.ErrUnexpectedEOF)
	if err == nil || err.Error() != want || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
		t.Errorf("Read allocated %d bytes for a %d-byte input", b, len(data))
	}
}
