package mgl

// Order-insensitive reductions: legal without collect-then-sort and
// without a directive.

func sumKeys(m map[int]string) int {
	total := 0
	for k := range m { // want `range over map m in deterministic package`
		total += k
	}
	return total
}

func countAndMask(m map[int]int) (int, int) {
	n, mask := 0, 0
	for _, v := range m { // want `range over map m in deterministic package`
		n++
		mask |= v
	}
	return n, mask
}

func histogram(m map[string]int) map[int]int {
	hist := make(map[int]int)
	for _, v := range m { // want `range over map m in deterministic package`
		hist[v]++
	}
	return hist
}

func minMaxBuiltin(m map[int]int) (int, int) {
	lo, hi := 1<<62, -(1 << 62)
	for k := range m { // want `range over map m in deterministic package`
		lo = min(lo, k)
		hi = max(hi, k)
	}
	return lo, hi
}

func runningMax(m map[int]int) int {
	best := -1
	for _, v := range m { // want `range over map m in deterministic package`
		if v > best {
			best = v
		}
	}
	return best
}

func setInsertByValue(m map[int]int) map[int]bool {
	seen := make(map[int]bool)
	for _, v := range m { // want `range over map m in deterministic package`
		seen[v] = true // constant store: colliding cells agree
	}
	return seen
}

func setInsertStruct(m map[int]int) map[int]struct{} {
	seen := make(map[int]struct{})
	for _, v := range m { // want `range over map m in deterministic package`
		seen[v] = struct{}{}
	}
	return seen
}

func invertByKey(m map[int]int) map[int]int {
	inv := make(map[int]int, len(m))
	for k, v := range m { // want `range over map m in deterministic package`
		inv[k] = v // keyed by the range key: every cell is distinct
	}
	return inv
}

func xorWithConversion(m map[int]int32) int {
	acc := 0
	for _, v := range m { // want `range over map m in deterministic package`
		acc ^= int(v) // conversions and len/min/max builtins are pure
	}
	return acc
}

// Still-flagged shapes: the fold looks like a reduction but is not
// provably order-free.

func floatSum(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `range over map m in deterministic package`
		total += v // float addition is non-associative
	}
	return total
}

func stringConcat(m map[int]string) string {
	s := ""
	for _, v := range m { // want `range over map m in deterministic package`
		s += v // concatenation is not commutative
	}
	return s
}

func prefixSums(m map[int]int) (int, int) {
	x, y := 0, 0
	for k := range m { // want `range over map m in deterministic package`
		x += k
		y += x // reads another accumulator mid-fold: order-dependent
	}
	return x, y
}

func callInOperand(m map[int]int, f func(int) int) int {
	total := 0
	for k := range m { // want `range over map m in deterministic package`
		total += f(k) // f could consume iteration order
	}
	return total
}

func valueKeyedStore(m map[int]int) map[int]int {
	last := make(map[int]int)
	for k, v := range m { // want `range over map m in deterministic package`
		last[v] = k // colliding values keep an order-chosen key
	}
	return last
}

func twoFoldsSameTarget(m map[int]int) int {
	x := 1
	for k := range m { // want `range over map m in deterministic package`
		x += k
		x *= 2 // mixing + and * on one target does not commute
	}
	return x
}
