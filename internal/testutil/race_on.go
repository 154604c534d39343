//go:build race

package testutil

// RaceEnabled reports whether the race detector is active. Its
// instrumentation allocates, and under it sync.Pool drops pooled items
// at random, so allocation-count assertions skip under -race (the
// `allocs` make target runs them without it).
const RaceEnabled = true
