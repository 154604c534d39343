// Package curve implements the piecewise-linear displacement curves at
// the heart of MGL (paper Section 3.1, Figure 4).
//
// For a candidate insertion point, every local cell contributes a curve
// of one of four types over the target cell's x-coordinate:
//
//	Type A: flat, then rising   — right-side cell at/right of its GP
//	Type B: falling, then flat  — left-side cell at/left of its GP
//	Type C: flat, falling, rising — right-side cell left of its GP
//	Type D: falling, rising, flat (mirrored C) — left-side cell right of its GP
//
// The target cell itself contributes the V-shaped |x - x'| curve. The
// sum of all curves is scanned at its breakpoints for the optimum,
// exactly as the paper does (it skips the MCF pre-pass that Theorem 1
// would need to guarantee convexity, so the scan must not assume it).
package curve

import (
	"cmp"
	"slices"
)

// Kind classifies a local cell's contribution curve (paper Figure 4).
// The four shapes are the complete case split of {right, left} side ×
// {at/beyond, short of} the cell's GP position; the Push* constructors
// switch over a Kind exhaustively so a new shape can never be added
// without every consumer taking a position on it (the exhaustive
// analyzer enforces this).
type Kind uint8

const (
	// KindA is flat, then rising: right-side cell at/right of its GP.
	KindA Kind = iota
	// KindB is falling, then flat: left-side cell at/left of its GP.
	KindB
	// KindC is flat, falling, rising: right-side cell left of its GP.
	KindC
	// KindD is falling, rising, flat: left-side cell right of its GP
	// (mirrored C).
	KindD
)

func (k Kind) String() string {
	switch k {
	case KindA:
		return "A"
	case KindB:
		return "B"
	case KindC:
		return "C"
	case KindD:
		return "D"
	}
	return "Kind(invalid)"
}

// RightKind classifies the curve of a right-side local cell currently
// at cur with GP position g: KindA at/right of the GP, KindC left of
// it.
func RightKind(cur, g int64) Kind {
	if cur >= g {
		return KindA
	}
	return KindC
}

// LeftKind classifies the curve of a left-side local cell: KindB
// at/left of the GP, KindD right of it.
func LeftKind(cur, g int64) Kind {
	if cur <= g {
		return KindB
	}
	return KindD
}

type breakpoint struct {
	x  int64
	ds int64 // slope increase at x
}

// Curve is a piecewise-linear function of an integer coordinate. The
// zero value is the constant 0 function.
//
// A curve built by ResetAbs is exact on its range [xref, hi] only: the
// accumulators fold the breakpoints at or left of xref into slope0 and
// drop those right of hi, so the sort and the MinOn sweep see only the
// breakpoints that can matter there.
type Curve struct {
	vref   int64 // value at xref
	xref   int64
	hi     int64 // right end of a ResetAbs range
	slope0 int64 // slope left of every breakpoint
	breaks []breakpoint
	sorted bool
}

// Const returns the constant curve f(x) = c.
func Const(c int64) *Curve { return &Curve{vref: c} }

// Abs returns f(x) = w*|x-g| + c, the target cell's own curve (w is the
// per-unit displacement cost, c a constant such as the y-displacement).
func Abs(g, w, c int64) *Curve {
	return &Curve{
		vref: c, xref: g, slope0: -w,
		breaks: []breakpoint{{x: g, ds: 2 * w}},
		sorted: true,
	}
}

// PushRight returns f(x) = w*|max(cur, x+off) - g|: the displacement of
// a right-side local cell whose position is max(cur, x+off) when the
// target sits at x. cur is the cell's current position, g its GP
// position, off the chain offset (target width plus the widths and
// spacings between). Yields RightKind(cur, g): KindA when cur >= g,
// KindC otherwise.
func PushRight(cur, g, off, w int64) *Curve {
	var c *Curve
	switch RightKind(cur, g) {
	case KindA:
		// (cur-g) for x <= cur-off, then rising.
		c = &Curve{
			vref: w * (cur - g), xref: cur - off,
			breaks: []breakpoint{{x: cur - off, ds: w}},
			sorted: true,
		}
	case KindC:
		// Flat (g-cur), falling to 0 at g-off, rising after.
		c = &Curve{
			vref: w * (g - cur), xref: cur - off,
			breaks: []breakpoint{
				{x: cur - off, ds: -w},
				{x: g - off, ds: 2 * w},
			},
			sorted: true,
		}
	case KindB, KindD:
		panic("curve: RightKind yielded a left-side kind")
	}
	return c
}

// PushLeft returns f(x) = w*|min(cur, x-off) - g|: the displacement of a
// left-side local cell whose position is min(cur, x-off). Yields
// LeftKind(cur, g): KindB when cur <= g, KindD otherwise.
func PushLeft(cur, g, off, w int64) *Curve {
	var c *Curve
	switch LeftKind(cur, g) {
	case KindB:
		// Falling toward the critical position cur+off, then flat at
		// (g-cur).
		c = &Curve{
			vref: w * (g - cur), xref: cur + off,
			slope0: -w,
			breaks: []breakpoint{{x: cur + off, ds: w}},
			sorted: true,
		}
	case KindD:
		// Rising region ends at cur+off with value (cur-g); flat
		// after; falling before g+off.
		c = &Curve{
			vref: w * (cur - g), xref: cur + off,
			slope0: -w,
			breaks: []breakpoint{
				{x: g + off, ds: 2 * w},
				{x: cur + off, ds: -w},
			},
			sorted: true,
		}
	case KindA, KindC:
		panic("curve: LeftKind yielded a right-side kind")
	}
	return c
}

// ResetAbs reinitializes c in place to f(x) = w*|x-g| + k on the range
// [lo, hi], reusing the breakpoint storage. It is the allocation-free
// form of Abs, used by the legalizer's hot path to rebuild the summed
// curve for every insertion point without heap traffic. The curve is
// exact on [lo, hi] only (see Curve); lo <= hi.
//
//mclegal:hotpath rebuilds the summed curve once per insertion point; only appends into caller-owned breakpoint storage
func (c *Curve) ResetAbs(g, w, k, lo, hi int64) {
	c.vref, c.xref, c.hi, c.slope0 = k+w*abs64(lo-g), lo, hi, -w
	c.breaks = c.breaks[:0]
	c.sorted = true
	c.addBreak(g, 2*w)
}

// addBreak records a slope change of ds at x on a ResetAbs range: at or
// left of xref it joins the start slope, right of hi it is dropped.
func (c *Curve) addBreak(x, ds int64) {
	switch {
	case x <= c.xref:
		c.slope0 += ds
	case x <= c.hi:
		c.breaks = append(c.breaks, breakpoint{x: x, ds: ds})
		c.sorted = false
	}
}

// AddPushRight accumulates PushRight(cur, g, off, w) into c, a curve
// built by ResetAbs, without allocating the intermediate curve: the
// contribution at c.xref is evaluated in closed form (w*|max(cur,
// xref+off) - g|) and the breakpoints go through addBreak.
//
//mclegal:hotpath curve accumulation runs once per chain cell per insertion point; appends only into c's own storage
func (c *Curve) AddPushRight(cur, g, off, w int64) {
	p := c.xref + off
	if cur > p {
		p = cur
	}
	c.vref += w * abs64(p-g)
	switch RightKind(cur, g) {
	case KindA:
		c.addBreak(cur-off, w)
	case KindC:
		c.addBreak(cur-off, -w)
		c.addBreak(g-off, 2*w)
	case KindB, KindD:
		panic("curve: RightKind yielded a left-side kind")
	}
}

// AddPushLeft mirrors AddPushRight for PushLeft: the contribution at
// c.xref is w*|min(cur, xref-off) - g|.
//
//mclegal:hotpath curve accumulation runs once per chain cell per insertion point; appends only into c's own storage
func (c *Curve) AddPushLeft(cur, g, off, w int64) {
	p := c.xref - off
	if cur < p {
		p = cur
	}
	c.vref += w * abs64(p-g)
	c.slope0 -= w
	switch LeftKind(cur, g) {
	case KindB:
		c.addBreak(cur+off, w)
	case KindD:
		c.addBreak(g+off, 2*w)
		c.addBreak(cur+off, -w)
	case KindA, KindC:
		panic("curve: LeftKind yielded a right-side kind")
	}
}

// Add accumulates o into c.
func (c *Curve) Add(o *Curve) {
	c.vref += o.Eval(c.xref)
	c.slope0 += o.slope0
	c.breaks = append(c.breaks, o.breaks...)
	c.sorted = false
}

// AddConst adds a constant to the curve.
func (c *Curve) AddConst(v int64) { c.vref += v }

func (c *Curve) ensureSorted() {
	if c.sorted {
		return
	}
	if len(c.breaks) <= 24 {
		// Insertion sort: breakpoint lists are tiny and this is on the
		// legalizer's hot path.
		for i := 1; i < len(c.breaks); i++ {
			for j := i; j > 0 && c.breaks[j].x < c.breaks[j-1].x; j-- {
				c.breaks[j], c.breaks[j-1] = c.breaks[j-1], c.breaks[j]
			}
		}
	} else {
		slices.SortFunc(c.breaks, func(a, b breakpoint) int { return cmp.Compare(a.x, b.x) })
	}
	c.sorted = true
}

// integrate returns the integral of the slope function over [a, b],
// a <= b. The slope is right-continuous: a breakpoint at x changes the
// slope on [x, next).
func (c *Curve) integrate(a, b int64) int64 {
	c.ensureSorted()
	var total int64
	s := c.slope0
	prev := a
	for _, bp := range c.breaks {
		if bp.x <= a {
			s += bp.ds
			continue
		}
		if bp.x >= b {
			break
		}
		total += s * (bp.x - prev)
		prev = bp.x
		s += bp.ds
	}
	total += s * (b - prev)
	return total
}

// Eval returns f(x).
func (c *Curve) Eval(x int64) int64 {
	if x >= c.xref {
		return c.vref + c.integrate(c.xref, x)
	}
	return c.vref - c.integrate(x, c.xref)
}

// Breakpoints returns the sorted breakpoint positions (with duplicates
// collapsed).
func (c *Curve) Breakpoints() []int64 {
	c.ensureSorted()
	out := make([]int64, 0, len(c.breaks))
	for _, b := range c.breaks {
		if n := len(out); n > 0 && out[n-1] == b.x {
			continue
		}
		out = append(out, b.x)
	}
	return out
}

// MinOn scans the curve on [lo, hi] and returns the minimizing x and
// value. Candidates are the interval endpoints, every breakpoint
// inside, and prefer itself; ties prefer the x closest to prefer (then
// the smaller x) so results are deterministic. The interval must
// satisfy lo <= hi. The scan is a single O(breaks) sweep.
func (c *Curve) MinOn(lo, hi, prefer int64) (bestX, bestV int64) {
	c.ensureSorted()
	bestX, bestV = lo, c.Eval(lo)
	better := func(x, v int64) {
		if v < bestV {
			bestX, bestV = x, v
			return
		}
		if v > bestV {
			return
		}
		dNew, dOld := abs64(x-prefer), abs64(bestX-prefer)
		if dNew < dOld || (dNew == dOld && x < bestX) {
			bestX = x
		}
	}
	// Sweep from lo: maintain the running value and slope.
	v := bestV
	s := c.slope0
	prev := lo
	preferDone := prefer <= lo || prefer > hi
	for _, b := range c.breaks {
		if b.x <= lo {
			s += b.ds
			continue
		}
		if b.x > hi {
			break
		}
		if !preferDone && prefer < b.x {
			better(prefer, v+s*(prefer-prev))
			preferDone = true
		}
		v += s * (b.x - prev)
		prev = b.x
		s += b.ds
		better(b.x, v)
	}
	if !preferDone {
		better(prefer, v+s*(prefer-prev))
	}
	better(hi, v+s*(hi-prev))
	return bestX, bestV
}

// IsConvex reports whether every breakpoint slope change is
// non-negative after merging co-located breaks, i.e. the curve is
// convex. Theorem 1 of the paper states the summed curve is convex when
// all local cells start at optimal positions.
func (c *Curve) IsConvex() bool {
	c.ensureSorted()
	for i := 0; i < len(c.breaks); {
		j := i
		var ds int64
		for j < len(c.breaks) && c.breaks[j].x == c.breaks[i].x {
			ds += c.breaks[j].ds
			j++
		}
		if ds < 0 {
			return false
		}
		i = j
	}
	return true
}

// Clone returns an independent copy.
func (c *Curve) Clone() *Curve {
	nc := *c
	nc.breaks = append([]breakpoint(nil), c.breaks...)
	return &nc
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
