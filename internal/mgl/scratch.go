package mgl

import (
	"mclegal/internal/curve"
	"mclegal/internal/freelist"
	"mclegal/internal/model"
)

// scratch holds reusable evaluation buffers, replacing per-insertion-
// point map allocations on the hot path. The per-cell and per-segment
// arrays are cleared by bumping a stamp: window for the window memo,
// stamp for an insertion point's state. After a few windows of warm-up
// every buffer has reached its steady-state capacity and a window
// evaluation performs zero heap allocations (see
// TestBestInWindowZeroAlloc). Every insertion point rewrites the
// slice headers and stamps, so the struct is padded at both ends: no
// other object's writes share its cache lines.
type scratch struct {
	_ [64]byte

	// The window memo: each side's bounds of the local cells (see
	// bound), each segment's free width (see freeWidth), the window's
	// chain cap, and the row task's window it was begun for, if any.
	window uint32
	capN   int32
	task   windowKey
	memo   [2][]reach
	free   []segFree

	// One insertion point's state: the offset each frontier cell needs
	// (offStamp, offReq), and a capped chain's search (capStep): its
	// members so far (queue, marked in inChain) and the next one to
	// expand (head). The two sides' chains never share a cell.
	stamp    uint32
	offStamp []uint32
	offReq   []int64
	inChain  []uint32
	queue    []model.CellID
	head     int32

	front  [2][]model.CellID // per side: the seeds, then the walk's frontier
	pushed []push            // pushed cells, the left side's first (evaluateInsertion)

	reps      []int       // insertion-point representatives (insertionReps)
	total     curve.Curve // summed displacement curve (evaluateInsertion)
	moves     []move      // candidate plan moves (evaluateInsertion)
	bestMoves []move      // current best plan's moves (bestInWindow)

	_ [64]byte
}

// windowKey names a split batch's window: the evaluate call and the
// batch slot. The zero key names none.
type windowKey struct {
	eval uint64
	slot int32
}

// segFree is a segment's memoized free width in the window (freeWidth).
type segFree struct {
	stamp uint32
	w     int32
}

// beginWindow starts the evaluation of one window of a design of n
// cells and segs segments whose chains hold at most capN cells: it
// sizes the per-cell and per-segment arrays and clears the window
// memo. Until the next call, every insertion point evaluated with s
// must lie in that window and see the same occupancy.
func (s *scratch) beginWindow(n, segs, capN int) {
	if len(s.offStamp) < n {
		s.memo[left] = make([]reach, n)
		s.memo[right] = make([]reach, n)
		s.offStamp = make([]uint32, n)
		s.offReq = make([]int64, n)
		s.inChain = make([]uint32, n)
	}
	if len(s.free) < segs {
		s.free = make([]segFree, segs)
	}
	// A pooled scratch outlives many runs, so the stamps can wrap
	// around; zeroing the arrays then keeps an old entry from matching.
	if s.window++; s.window == 0 {
		clear(s.memo[left])
		clear(s.memo[right])
		clear(s.free)
		s.window = 1
	}
	s.capN = int32(capN)
	s.task = windowKey{}
}

// beginPoint starts the evaluation of one insertion point: it clears
// the insertion-point state, the frontiers and the pushed cells.
func (s *scratch) beginPoint() {
	s.front[left], s.front[right] = s.front[left][:0], s.front[right][:0]
	s.pushed = s.pushed[:0]
	if s.stamp++; s.stamp == 0 {
		clear(s.offStamp)
		clear(s.inChain)
		s.stamp = 1
	}
}

// scratchPool keeps the scratch buffers of the evaluation workers
// between runs.
var scratchPool freelist.List[scratch]

// takeScratch takes a worker's scratch from scratchPool. It forgets
// the window the scratch's memo was begun for: the key of an earlier
// run's window can repeat in this run.
func takeScratch() *scratch {
	sc := scratchPool.Get()
	sc.task = windowKey{}
	return sc
}
