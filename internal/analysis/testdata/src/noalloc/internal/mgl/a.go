// Fixture for the noalloc analyzer: a //mclegal:hotpath root whose
// call tree mixes rooted (clean) pooled-scratch idioms with every
// reportable allocation shape, plus suppression and
// missing-justification paths.
package mgl

import (
	"sort"
	"sync"

	"noalloc/internal/curve"
)

type scratch struct {
	buf   []int
	moves []int
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

var sink []int
var escape func() int

//mclegal:hotpath fixture twin of the zero-alloc benchmark root
func BestInWindow(dst *[]int, n int) int {
	sc := pool.Get().(*scratch) // pooled: Get is allow-listed, sc is rooted
	defer pool.Put(sc)
	sc.buf = append(sc.buf[:0], n) // rooted: pooled scratch growth
	reps := sc.moves[:0]           // rooted: reslice of pooled storage
	reps = append(reps, n)
	i := sort.Search(n, func(i int) bool { return i >= n/2 }) // allow-listed; closure accepted
	leak := make([]int, n)                                    // want `make allocates on every call`
	*dst = append((*dst)[:0], leak...)                        // rooted: pointer parameter
	engineCases(reps, n)
	return helper(n) + curve.Accumulate(reps, n) + i
}

func helper(n int) int {
	m := map[int]int{} // want `map literal allocates on every call`
	m[n] = n           // want `map store allocates on every call`
	x := n
	escape = func() int { return x } // want `escaping closure allocates on every call`
	box := any(n)                    // want `interface boxing allocates on every call`
	_ = box
	return indirect(func() int { return 0 }) + m[n]
}

func indirect(f func() int) int {
	return f() // want `indirect call of a function value cannot be proven allocation-free`
}

//mclegal:hotpath
func BareRoot(n int) { // want `//mclegal:hotpath directive is missing a justification`
	//mclegal:alloc fixture: one-time warm-up growth of the package sink
	sink = append(sink, n)
	//mclegal:alloc
	sink = append(sink, n) // want `//mclegal:alloc directive is missing a justification`
}

// NotHot never appears in a hotpath tree, so nothing here is reported.
func NotHot(n int) []int {
	out := make([]int, n)
	return out
}

// engineCases reaches the rootedness shapes of the shared taint engine
// from the hot root.
func engineCases(buf []int, n int) {
	pooledCommaOk(n)
	grid.fill(n)
	_ = appendParam(buf, n)
}

// pooledCommaOk takes its scratch through a comma-ok assertion: the
// multi-value bind still roots sc in pooled storage, so its growth is
// warm-up.
func pooledCommaOk(n int) {
	sc, ok := pool.Get().(*scratch)
	if !ok {
		return
	}
	sc.buf = append(sc.buf[:0], n)
	pool.Put(sc)
}

type rows struct{ rows [][]int }

var grid rows

// fill reuses each receiver-owned row: a range variable over rooted
// storage is rooted too.
func (r *rows) fill(n int) {
	for i, row := range r.rows {
		r.rows[i] = append(row[:0], n)
	}
}

// appendParam grows a slice parameter, whose header is the caller's
// copy: the growth lands in a fresh array on every call.
func appendParam(buf []int, n int) []int {
	return append(buf, n) // want `append allocates on every call`
}
