package curve

import (
	"math/rand"
	"testing"
)

// The in-place accumulation methods (ResetAbs, AddPushLeft,
// AddPushRight) must agree with the allocating constructors they
// replace on the legalizer's hot path, at every point of the ResetAbs
// range [lo, hi], and MinOn over that range must pick the same (x, v).
// The ranges cover lo == hi and ends that sit exactly on a breakpoint
// of the sum; prefer falls left of, inside and right of the range.
func TestInPlaceAccumulationMatchesConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type term struct {
		left        bool
		cur, g, off int64
	}
	for trial := 0; trial < 600; trial++ {
		g0 := int64(rng.Intn(200) - 100)
		w := int64(1 + rng.Intn(10))
		k := int64(rng.Intn(1000))

		ref := Abs(g0, w, k)
		terms := make([]term, 1+rng.Intn(8))
		for i := range terms {
			tm := term{
				left: rng.Intn(2) == 0,
				cur:  int64(rng.Intn(200) - 100),
				g:    int64(rng.Intn(200) - 100),
				off:  int64(1 + rng.Intn(20)),
			}
			terms[i] = tm
			if tm.left {
				ref.Add(PushLeft(tm.cur, tm.g, tm.off, w))
			} else {
				ref.Add(PushRight(tm.cur, tm.g, tm.off, w))
			}
		}

		bps := ref.Breakpoints()
		bp := func() int64 { return bps[rng.Intn(len(bps))] }
		lo := int64(rng.Intn(300) - 150)
		hi := lo + int64(rng.Intn(100))
		switch trial % 5 {
		case 1:
			hi = lo
		case 2:
			lo = bp()
			hi = lo + int64(rng.Intn(60))
		case 3:
			hi = bp()
			lo = hi - int64(rng.Intn(60))
		case 4:
			lo, hi = bp(), bp()
			if lo > hi {
				lo, hi = hi, lo
			}
		}

		var got Curve
		got.ResetAbs(g0, w, k, lo, hi)
		for _, tm := range terms {
			if tm.left {
				got.AddPushLeft(tm.cur, tm.g, tm.off, w)
			} else {
				got.AddPushRight(tm.cur, tm.g, tm.off, w)
			}
		}

		for x := lo; x <= hi; x++ {
			if rv, gv := ref.Eval(x), got.Eval(x); rv != gv {
				t.Fatalf("trial %d on [%d,%d]: Eval(%d) = %d in place, %d via constructors",
					trial, lo, hi, x, gv, rv)
			}
		}
		prefers := []int64{
			lo - 1 - int64(rng.Intn(20)), lo, lo + int64(rng.Intn(int(hi-lo)+1)),
			hi, hi + 1 + int64(rng.Intn(20)), g0,
		}
		for _, prefer := range prefers {
			rx, rv := ref.MinOn(lo, hi, prefer)
			gx, gv := got.MinOn(lo, hi, prefer)
			if rx != gx || rv != gv {
				t.Fatalf("trial %d: MinOn(%d,%d,%d) = (%d,%d) in place, (%d,%d) via constructors",
					trial, lo, hi, prefer, gx, gv, rx, rv)
			}
		}
	}
}

// ResetAbs must fully overwrite previous state, range included, so a
// recycled curve cannot leak breakpoints or reference values between
// evaluations.
func TestResetAbsClearsState(t *testing.T) {
	var c Curve
	c.ResetAbs(10, 2, 0, 0, 50)
	c.AddPushRight(30, 25, 3, 2)
	c.AddPushLeft(-5, 0, 4, 2)
	c.ResetAbs(7, 3, 11, -30, 30)
	want := Abs(7, 3, 11)
	for x := int64(-30); x <= 30; x++ {
		if c.Eval(x) != want.Eval(x) {
			t.Fatalf("Eval(%d) = %d after reset, want %d", x, c.Eval(x), want.Eval(x))
		}
	}
}
