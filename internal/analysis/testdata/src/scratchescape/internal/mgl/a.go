package mgl

type move struct{ id, x, y int }

// scratch mirrors the pooled evaluation scratch of internal/mgl: its
// slice fields are recycled through a sync.Pool, so aliases must not
// survive past the evaluation boundary.
type scratch struct {
	moves     []move
	bestMoves []move
	reps      []int
}

type result struct{ moves []move }

var leaked []move

func storeGlobal(sc *scratch) {
	leaked = sc.moves // want `scratch buffer sc\.moves is aliased past the evaluation boundary`
}

func storeThroughPointer(sc *scratch, r *result) {
	r.moves = sc.moves // want `scratch buffer sc\.moves is aliased past the evaluation boundary`
}

func sendOnChannel(sc *scratch, ch chan []move) {
	ch <- sc.moves // want `scratch buffer sc\.moves sent on a channel`
}

func ExportedReturn(sc *scratch) []move {
	return sc.moves // want `scratch buffer sc\.moves returned from exported ExportedReturn`
}

func appendElement(sc *scratch) [][]move {
	var rows [][]move
	rows = append(rows, sc.moves) // want `scratch buffer sc\.moves appended as an element`
	return rows
}

func launderedThroughLocal(sc *scratch, r *result) {
	m := sc.moves
	r.moves = m // want `scratch buffer m is aliased past the evaluation boundary`
}

func launderedSlice(sc *scratch, r *result) {
	m := sc.moves[:1]
	r.moves = m[1:] // want `scratch buffer m\[1:\] is aliased past the evaluation boundary`
}

// good exercises every legal pattern from the three-stage ownership
// rule: spread copies, growth written back into the scratch, aliases
// confined to locals and local value structs.
func good(sc *scratch, r *result) {
	r.moves = append(r.moves[:0], sc.moves...)
	sc.bestMoves = append(sc.bestMoves[:0], sc.moves...)

	local := sc.moves[:0]
	local = append(local, move{})
	sc.moves = local

	var res result
	res.moves = sc.moves
	_ = res

	sc.reps = sc.reps[:0]
}

// goodReturn is the intra-boundary helper idiom: unexported callees may
// hand scratch-owned slices back to their (scratch-owning) caller.
func goodReturn(sc *scratch) []move {
	return sc.moves
}

func justified(sc *scratch, r *result) {
	//mclegal:escape caller copies r.moves before the scratch is released
	r.moves = sc.moves
}

// ExportedGrown returns scratch storage grown in place: append's first
// operand carries the taint to its result.
func ExportedGrown(sc *scratch) []move {
	grown := append(sc.moves[:0], move{})
	return grown // want `scratch buffer grown returned from exported ExportedGrown`
}

type ref struct {
	m    *move
	last move
}

// storeAddress parks a pointer into the scratch backing array: the
// address carries the taint although a copied move would not, so only
// the first store is an escape.
func storeAddress(sc *scratch, r *ref) {
	r.m = &sc.moves[0] // want `scratch buffer &sc\.moves\[0\] is aliased past the evaluation boundary`
	r.last = sc.moves[0]
}
