package bmark

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// writeFmt is the fmt-based serializer Write replaced, kept as the
// byte-for-byte oracle for it.
func writeFmt(w io.Writer, d *model.Design) error {
	if err := checkWritable(d); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }
	t := &d.Tech
	p("%s\n", formatMagic)
	p("name %s\n", d.Name)
	flip := 0
	if t.FlipOddRows {
		flip = 1
	}
	p("tech %d %d %d %d %d %d\n", t.SiteW, t.RowH, t.NumSites, t.NumRows, t.EvenBottomParity, flip)
	p("rails %d %d %d %d %d %d %d\n", t.HRailLayer, t.HRailHalfW, t.HRailPeriod,
		t.VRailLayer, t.VRailPitch, t.VRailW, t.VRailOffset)
	p("spacing %d\n", len(t.EdgeSpacing))
	for _, row := range t.EdgeSpacing {
		for i, v := range row {
			if i > 0 {
				p(" ")
			}
			p("%d", v)
		}
		p("\n")
	}
	p("types %d\n", len(d.Types))
	for i := range d.Types {
		ct := &d.Types[i]
		p("type %s %d %d %d %d %d\n", ct.Name, ct.Width, ct.Height, ct.EdgeL, ct.EdgeR, len(ct.Pins))
		for _, pin := range ct.Pins {
			p("pin %s %d %d %d %d %d\n", pin.Name, pin.Layer,
				pin.Box.XLo, pin.Box.YLo, pin.Box.XHi, pin.Box.YHi)
		}
	}
	p("fences %d\n", len(d.Fences))
	for i := range d.Fences {
		f := &d.Fences[i]
		p("fence %s %d\n", f.Name, len(f.Rects))
		for _, r := range f.Rects {
			p("rect %d %d %d %d\n", r.XLo, r.YLo, r.XHi, r.YHi)
		}
	}
	p("blockages %d\n", len(d.Blockages))
	for _, r := range d.Blockages {
		p("rect %d %d %d %d\n", r.XLo, r.YLo, r.XHi, r.YHi)
	}
	p("iopins %d\n", len(d.IOPins))
	for i := range d.IOPins {
		io := &d.IOPins[i]
		p("io %s %d %d %d %d %d\n", io.Name, io.Layer,
			io.Box.XLo, io.Box.YLo, io.Box.XHi, io.Box.YHi)
	}
	p("cells %d\n", len(d.Cells))
	for i := range d.Cells {
		c := &d.Cells[i]
		fx := 0
		if c.Fixed {
			fx = 1
		}
		p("cell %s %d %d %d %d %d %d %d\n", c.Name, c.Type, c.Fence, c.GX, c.GY, c.X, c.Y, fx)
	}
	p("nets %d\n", len(d.Nets))
	for i := range d.Nets {
		n := &d.Nets[i]
		p("net %s %d\n", n.Name, len(n.Pins))
		for _, pin := range n.Pins {
			p("pinref %d %d %d\n", pin.Cell, pin.DX, pin.DY)
		}
	}
	return bw.Flush()
}

// checkWriteMatchesOracle fails t unless Write and writeFmt produce the
// same bytes for d.
func checkWriteMatchesOracle(t *testing.T, d *model.Design) {
	t.Helper()
	var got, want bytes.Buffer
	if err := Write(&got, d); err != nil {
		t.Fatal(err)
	}
	if err := writeFmt(&want, d); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: Write differs from the fmt oracle at byte %d of %d", d.Name, i, len(w))
	}
}

// Write must reproduce the fmt-based output byte for byte on every
// suite design. One design also gets blockages and an uneven spacing
// table, which no generator emits.
func TestWriteMatchesFmtOracle(t *testing.T) {
	var designs []*model.Design
	for _, b := range ContestBenches() {
		designs = append(designs, ContestDesign(b, 0.002))
	}
	for _, b := range ISPDBenches() {
		designs = append(designs, ISPDDesign(b, 0.002))
	}
	for _, b := range ShardBenches() {
		designs = append(designs, ShardDesign(b, 0.002))
	}
	extra := designs[0].Clone()
	extra.Name = "extra"
	extra.Blockages = []geom.Rect{{XLo: 0, YLo: 1, XHi: 12, YHi: 3}, {XLo: 40, YLo: 0, XHi: 41, YHi: 9}}
	extra.Tech.EdgeSpacing = [][]int{{0, 2, 11}, {}, {-3}}
	designs = append(designs, extra)
	for _, d := range designs {
		checkWriteMatchesOracle(t, d)
	}
}
