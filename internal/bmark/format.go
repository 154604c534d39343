package bmark

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// The .mcl plain-text design format. Line-oriented, whitespace
// separated, deterministic ordering, version-tagged.

const formatMagic = "MCLEGAL 1"

// writableName rejects names the line-oriented format cannot round-trip:
// embedded whitespace splits the field, an empty name drops it, and a
// leading '#' would not survive a hand edit that moves it to the front
// of a line.
func writableName(kind, s string) error {
	if s == "" || strings.ContainsAny(s, " \t\n\r") || strings.HasPrefix(s, "#") {
		return fmt.Errorf("bmark: %s name %q is not serializable", kind, s)
	}
	return nil
}

// checkWritable validates every name Write would emit, so a Write/Read
// round trip can never silently corrupt the design.
func checkWritable(d *model.Design) error {
	if err := writableName("design", d.Name); err != nil {
		return err
	}
	for i := range d.Types {
		if err := writableName("type", d.Types[i].Name); err != nil {
			return err
		}
		for _, pin := range d.Types[i].Pins {
			if err := writableName("pin", pin.Name); err != nil {
				return err
			}
		}
	}
	for i := range d.Fences {
		if err := writableName("fence", d.Fences[i].Name); err != nil {
			return err
		}
	}
	for i := range d.IOPins {
		if err := writableName("io pin", d.IOPins[i].Name); err != nil {
			return err
		}
	}
	for i := range d.Cells {
		if err := writableName("cell", d.Cells[i].Name); err != nil {
			return err
		}
	}
	for i := range d.Nets {
		if err := writableName("net", d.Nets[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// Write serializes d to w in .mcl format.
func Write(w io.Writer, d *model.Design) error {
	if err := checkWritable(d); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	// line writes key, then name unless it is empty (names never are,
	// see writableName), then vals, separated by single spaces. It
	// appends to one reused buffer with strconv.AppendInt because fmt
	// would box every integer, and formatting is most of Write's time.
	line := func(key, name string, vals ...int) {
		b := append(buf[:0], key...)
		if name != "" {
			b = append(b, ' ')
			b = append(b, name...)
		}
		for _, v := range vals {
			if len(b) > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, '\n')
		buf = b
		_, _ = bw.Write(b) // the error sticks in bw; Flush reports it
	}
	t := &d.Tech
	line(formatMagic, "")
	line("name", d.Name)
	flip := 0
	if t.FlipOddRows {
		flip = 1
	}
	line("tech", "", t.SiteW, t.RowH, t.NumSites, t.NumRows, t.EvenBottomParity, flip)
	line("rails", "", t.HRailLayer, t.HRailHalfW, t.HRailPeriod,
		t.VRailLayer, t.VRailPitch, t.VRailW, t.VRailOffset)
	line("spacing", "", len(t.EdgeSpacing))
	for _, row := range t.EdgeSpacing {
		line("", "", row...)
	}
	line("types", "", len(d.Types))
	for i := range d.Types {
		ct := &d.Types[i]
		line("type", ct.Name, ct.Width, ct.Height, int(ct.EdgeL), int(ct.EdgeR), len(ct.Pins))
		for _, pin := range ct.Pins {
			line("pin", pin.Name, pin.Layer,
				pin.Box.XLo, pin.Box.YLo, pin.Box.XHi, pin.Box.YHi)
		}
	}
	line("fences", "", len(d.Fences))
	for i := range d.Fences {
		f := &d.Fences[i]
		line("fence", f.Name, len(f.Rects))
		for _, r := range f.Rects {
			line("rect", "", r.XLo, r.YLo, r.XHi, r.YHi)
		}
	}
	line("blockages", "", len(d.Blockages))
	for _, r := range d.Blockages {
		line("rect", "", r.XLo, r.YLo, r.XHi, r.YHi)
	}
	line("iopins", "", len(d.IOPins))
	for i := range d.IOPins {
		io := &d.IOPins[i]
		line("io", io.Name, io.Layer,
			io.Box.XLo, io.Box.YLo, io.Box.XHi, io.Box.YHi)
	}
	line("cells", "", len(d.Cells))
	for i := range d.Cells {
		c := &d.Cells[i]
		fx := 0
		if c.Fixed {
			fx = 1
		}
		line("cell", c.Name, int(c.Type), int(c.Fence), c.GX, c.GY, c.X, c.Y, fx)
	}
	line("nets", "", len(d.Nets))
	for i := range d.Nets {
		n := &d.Nets[i]
		line("net", n.Name, len(n.Pins))
		for _, pin := range n.Pins {
			line("pinref", "", int(pin.Cell), pin.DX, pin.DY)
		}
	}
	return bw.Flush()
}

// ReadMode selects how tolerant Read is of deviations from the
// canonical form Write produces. Comments and blank lines are part of
// the format and accepted in both modes.
type ReadMode int

const (
	// ModeStrict (the default) rejects every deviation: exact field
	// counts, clean integers, non-negative section counts, and nothing
	// but comments or blanks after the final section.
	ModeStrict ReadMode = iota
	// ModeLenient ignores extra fields at the end of a line and any
	// trailing content after the nets section, easing hand-edited or
	// future-extended files. Integers and counts stay strict: silently
	// mis-read geometry is worse than a rejected file.
	ModeLenient
)

// Limits bounds what a Read consumes from an untrusted reader — a
// network request body, say — so an oversized input fails with a typed
// *LimitError instead of exhausting memory. The zero value imposes no
// limits (the historical behavior for trusted local files).
type Limits struct {
	// MaxBytes caps the total bytes read from the input (0 = no cap).
	// An input of exactly MaxBytes still parses; the first byte beyond
	// it fails the read.
	MaxBytes int64
	// MaxCount caps every section count header (cells, nets, types,
	// fences, blockages, iopins, spacing; 0 = no cap). A header
	// declaring more items than MaxCount fails before any of the items
	// are consumed.
	MaxCount int
}

// LimitError is the typed error Read fails with when an input exceeds
// a configured limit.
type LimitError struct {
	// What names the exceeded limit: "bytes" or the section keyword
	// whose count was over the cap.
	What string
	// Limit is the configured bound; Actual is the observed value (for
	// "bytes" it is the byte position at which the cap was hit).
	Limit  int64
	Actual int64
}

func (e *LimitError) Error() string {
	if e.What == "bytes" {
		return fmt.Sprintf("bmark: input exceeds %d-byte limit", e.Limit)
	}
	return fmt.Sprintf("bmark: %s count %d exceeds limit %d", e.What, e.Actual, e.Limit)
}

// ReadOption customizes ReadWithMode; see WithLimits.
type ReadOption func(*parser)

// WithLimits applies input-size limits to a read.
func WithLimits(l Limits) ReadOption {
	return func(p *parser) { p.limits = l }
}

// cappedReader yields at most limit bytes, then fails with a typed
// *LimitError on the first byte beyond the cap — but still reports a
// clean EOF for inputs of exactly limit bytes.
type cappedReader struct {
	r     io.Reader
	n     int64
	limit int64
	// hit records that excess data was seen, so Read's caller can
	// prefer the limit error over whatever parse error the truncation
	// provoked first.
	hit bool
}

func (cr *cappedReader) Read(p []byte) (int, error) {
	if rem := cr.limit - cr.n; rem <= 0 {
		// Probe: only actual excess data is an error; EOF exactly at
		// the cap is a legal input.
		var b [1]byte
		n, err := cr.r.Read(b[:])
		if n > 0 {
			cr.hit = true
			return 0, &LimitError{What: "bytes", Limit: cr.limit, Actual: cr.limit + 1}
		}
		return 0, err
	} else if int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

type parser struct {
	sc     *bufio.Scanner
	line   int
	mode   ReadMode
	limits Limits
	fields [][]byte // the current line's fields, reused from line to line
}

// presizeCap bounds how many items a section header presizes its slice
// for, so a forged count costs at most a few hundred KiB before the
// body runs out.
const presizeCap = 4096

// presize returns an empty slice with room for n items, up to
// presizeCap. A zero count returns nil, the value a section without
// items has always had (Design.Clone and the round-trip tests tell nil
// from empty).
func presize[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	return make([]T, 0, min(n, presizeCap))
}

// splitFields appends the fields of line to dst exactly as
// strings.Fields splits it. An ASCII line is split in place, at runs of
// the six ASCII space bytes; a line with any byte >= 0x80 goes to
// bytes.Fields, which also splits at Unicode white space. The fields
// alias line.
func splitFields(dst [][]byte, line []byte) [][]byte {
	for _, b := range line {
		if b >= utf8.RuneSelf {
			return append(dst, bytes.Fields(line)...)
		}
	}
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if j > i {
			dst = append(dst, line[i:j:j])
		}
		i = j
	}
	return dst
}

// asciiSpace reports whether b is one of the bytes below 0x80 that
// strings.Fields splits at.
func asciiSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
}

// joinFields renders fields as one space-separated string, for the
// magic line and error messages.
func joinFields(f [][]byte) string { return string(bytes.Join(f, []byte{' '})) }

// next returns the fields of the next line that is neither blank nor a
// comment. They alias the scanner's buffer and the parser's field
// slice, so they are valid until the next call.
func (p *parser) next() ([][]byte, error) {
	for p.sc.Scan() {
		p.line++
		p.fields = splitFields(p.fields[:0], p.sc.Bytes())
		if len(p.fields) == 0 || p.fields[0][0] == '#' {
			continue
		}
		return p.fields, nil
	}
	if err := p.sc.Err(); err != nil {
		var le *LimitError
		if errors.As(err, &le) {
			return nil, le // already carries the "bmark:" prefix
		}
		return nil, fmt.Errorf("bmark: line %d: %w", p.line, err)
	}
	return nil, fmt.Errorf("bmark: line %d: %w", p.line, io.ErrUnexpectedEOF)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("bmark: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// expect reads a line, checks the keyword, and scans the remaining
// fields into dst (pointers to int or string).
func (p *parser) expect(keyword string, dst ...any) error {
	f, err := p.next()
	if err != nil {
		return err
	}
	if string(f[0]) != keyword {
		return p.errf("want %q, got %q", keyword, string(f[0]))
	}
	switch {
	case len(f)-1 < len(dst):
		return p.errf("%s: want %d fields, got %d", keyword, len(dst), len(f)-1)
	case len(f)-1 > len(dst) && p.mode == ModeStrict:
		return p.errf("%s: want %d fields, got %d", keyword, len(dst), len(f)-1)
	}
	for i, d := range dst {
		switch v := d.(type) {
		case *string:
			// Keep the accepted-implies-writable invariant: a '#'-led
			// name would turn into a comment on the next hand edit.
			if f[i+1][0] == '#' {
				return p.errf("%s: unserializable name %q", keyword, string(f[i+1]))
			}
			*v = string(f[i+1])
		case *int:
			n, err := strconv.Atoi(string(f[i+1]))
			if err != nil {
				return p.errf("%s: bad int %q", keyword, string(f[i+1]))
			}
			*v = n
		default:
			// No %T of d here: formatting it would move every field
			// target of every line to the heap.
			return p.errf("%s: internal: unsupported target for field %d", keyword, i+1)
		}
	}
	return nil
}

// count reads a "<keyword> <n>" section header and rejects negative
// counts, which would silently skip the section and misalign everything
// after it.
func (p *parser) count(keyword string) (int, error) {
	var n int
	if err := p.expect(keyword, &n); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, p.errf("%s: negative count %d", keyword, n)
	}
	if p.limits.MaxCount > 0 && n > p.limits.MaxCount {
		return 0, &LimitError{What: keyword, Limit: int64(p.limits.MaxCount), Actual: int64(n)}
	}
	return n, nil
}

// Read parses a .mcl design in ModeStrict.
func Read(r io.Reader) (*model.Design, error) {
	return ReadWithMode(r, ModeStrict)
}

// ReadWithMode parses a .mcl design with the given tolerance mode and
// optional input limits (WithLimits). Errors carry the 1-based line
// number they were detected on; limit violations are typed
// *LimitError values (wrapped, so use errors.As).
func ReadWithMode(r io.Reader, mode ReadMode, opts ...ReadOption) (*model.Design, error) {
	p := &parser{mode: mode}
	for _, o := range opts {
		o(p)
	}
	var cr *cappedReader
	if p.limits.MaxBytes > 0 {
		cr = &cappedReader{r: r, limit: p.limits.MaxBytes}
		r = cr
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), 1<<24)
	p.sc = sc

	d, err := p.readDesign()
	if err != nil && cr != nil && cr.hit {
		// A byte-capped input is cut at an arbitrary point, so the
		// parser usually trips over the truncated tail before it sees
		// the reader's error. The limit is the root cause; it wins over
		// the incidental parse error.
		var le *LimitError
		if !errors.As(err, &le) {
			err = &LimitError{What: "bytes", Limit: cr.limit, Actual: cr.limit + 1}
		}
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// readDesign is the parse proper, over the parser's configured scanner.
func (p *parser) readDesign() (*model.Design, error) {
	f, err := p.next()
	if err != nil {
		return nil, err
	}
	if magic := joinFields(f); magic != formatMagic {
		return nil, p.errf("bad magic %q", magic)
	}
	d := &model.Design{}
	if err := p.expect("name", &d.Name); err != nil {
		return nil, err
	}
	t := &d.Tech
	var flip int
	if err := p.expect("tech", &t.SiteW, &t.RowH, &t.NumSites, &t.NumRows, &t.EvenBottomParity, &flip); err != nil {
		return nil, err
	}
	t.FlipOddRows = flip != 0
	if err := p.expect("rails", &t.HRailLayer, &t.HRailHalfW, &t.HRailPeriod,
		&t.VRailLayer, &t.VRailPitch, &t.VRailW, &t.VRailOffset); err != nil {
		return nil, err
	}
	n, err := p.count("spacing")
	if err != nil {
		return nil, err
	}
	t.EdgeSpacing = presize[[]int](n)
	for i := 0; i < n; i++ {
		f, err := p.next()
		if err != nil {
			return nil, err
		}
		if len(f) != n {
			return nil, p.errf("spacing row %d: want %d entries, got %d", i, n, len(f))
		}
		row := make([]int, n)
		for j, s := range f {
			v, err := strconv.Atoi(string(s))
			if err != nil {
				return nil, p.errf("bad spacing %q", string(s))
			}
			row[j] = v
		}
		t.EdgeSpacing = append(t.EdgeSpacing, row)
	}
	if n, err = p.count("types"); err != nil {
		return nil, err
	}
	d.Types = presize[model.CellType](n)
	for i := 0; i < n; i++ {
		var ct model.CellType
		var el, er, np int
		if err := p.expect("type", &ct.Name, &ct.Width, &ct.Height, &el, &er, &np); err != nil {
			return nil, err
		}
		ct.EdgeL, ct.EdgeR = uint8(el), uint8(er)
		if np < 0 {
			return nil, p.errf("type %s: negative pin count %d", ct.Name, np)
		}
		ct.Pins = presize[model.PinShape](np)
		for j := 0; j < np; j++ {
			var pin model.PinShape
			if err := p.expect("pin", &pin.Name, &pin.Layer,
				&pin.Box.XLo, &pin.Box.YLo, &pin.Box.XHi, &pin.Box.YHi); err != nil {
				return nil, err
			}
			ct.Pins = append(ct.Pins, pin)
		}
		d.Types = append(d.Types, ct)
	}
	if n, err = p.count("fences"); err != nil {
		return nil, err
	}
	d.Fences = presize[model.Fence](n)
	for i := 0; i < n; i++ {
		var fe model.Fence
		var nr int
		if err := p.expect("fence", &fe.Name, &nr); err != nil {
			return nil, err
		}
		if nr < 0 {
			return nil, p.errf("fence %s: negative rect count %d", fe.Name, nr)
		}
		fe.Rects = presize[geom.Rect](nr)
		for j := 0; j < nr; j++ {
			var r geom.Rect
			if err := p.expect("rect", &r.XLo, &r.YLo, &r.XHi, &r.YHi); err != nil {
				return nil, err
			}
			fe.Rects = append(fe.Rects, r)
		}
		d.Fences = append(d.Fences, fe)
	}
	if n, err = p.count("blockages"); err != nil {
		return nil, err
	}
	d.Blockages = presize[geom.Rect](n)
	for i := 0; i < n; i++ {
		var r geom.Rect
		if err := p.expect("rect", &r.XLo, &r.YLo, &r.XHi, &r.YHi); err != nil {
			return nil, err
		}
		d.Blockages = append(d.Blockages, r)
	}
	if n, err = p.count("iopins"); err != nil {
		return nil, err
	}
	d.IOPins = presize[model.IOPin](n)
	for i := 0; i < n; i++ {
		var io model.IOPin
		if err := p.expect("io", &io.Name, &io.Layer,
			&io.Box.XLo, &io.Box.YLo, &io.Box.XHi, &io.Box.YHi); err != nil {
			return nil, err
		}
		d.IOPins = append(d.IOPins, io)
	}
	if n, err = p.count("cells"); err != nil {
		return nil, err
	}
	d.Cells = presize[model.Cell](n)
	for i := 0; i < n; i++ {
		var c model.Cell
		var ti, fi, fx int
		if err := p.expect("cell", &c.Name, &ti, &fi, &c.GX, &c.GY, &c.X, &c.Y, &fx); err != nil {
			return nil, err
		}
		c.Type = model.CellTypeID(ti)
		c.Fence = model.FenceID(fi)
		c.Fixed = fx != 0
		d.Cells = append(d.Cells, c)
	}
	if n, err = p.count("nets"); err != nil {
		return nil, err
	}
	d.Nets = presize[model.Net](n)
	for i := 0; i < n; i++ {
		var net model.Net
		var np int
		if err := p.expect("net", &net.Name, &np); err != nil {
			return nil, err
		}
		if np < 0 {
			return nil, p.errf("net %s: negative pin count %d", net.Name, np)
		}
		net.Pins = presize[model.NetPin](np)
		for j := 0; j < np; j++ {
			var pin model.NetPin
			var ci int
			if err := p.expect("pinref", &ci, &pin.DX, &pin.DY); err != nil {
				return nil, err
			}
			pin.Cell = model.CellID(ci)
			net.Pins = append(net.Pins, pin)
		}
		d.Nets = append(d.Nets, net)
	}
	if p.mode == ModeStrict {
		// Only comments and blanks may follow the final section.
		if f, err := p.next(); err == nil {
			return nil, p.errf("trailing content %q after nets section", joinFields(f))
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("bmark: parsed design invalid: %w", err)
	}
	return d, nil
}
