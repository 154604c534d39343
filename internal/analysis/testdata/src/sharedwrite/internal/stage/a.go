// Fixture for the sharedwrite analyzer: live-window races on fields,
// captured locals and transitive callee writes are diagnosed, locked
// or not; pre-spawn init and post-barrier accesses are exempt.
package stage

import "sync"

type agg struct{ n int }

func bump(a *agg) { a.n++ }

// --- diagnosed: continuation write races the spawned writer --------

func race() {
	a := &agg{}
	go bump(a)
	a.n++ // want `write of n races the goroutine spawned at line 16`
}

// --- diagnosed: continuation read races the spawned writer ---------

func readRace(a *agg) int {
	go bump(a)
	return a.n // want `read of n races the goroutine`
}

// --- diagnosed: write reached through a transitive static callee ---

func deepWrite(a *agg) { bump(a) }

func transitive(a *agg) {
	go deepWrite(a)
	a.n++ // want `write of n races the goroutine`
}

// --- diagnosed: captured local written on both sides ---------------

func capturedLocal() int {
	n := 0
	done := make(chan struct{})
	go func() {
		n++
		done <- struct{}{}
	}()
	n++ // want `write of n races the goroutine`
	<-done
	return n
}

// --- exempt: pre-spawn init and post-barrier accesses --------------

func initThenJoin() int {
	a := &agg{}
	a.n = 1
	done := make(chan struct{})
	go func() {
		a.n++
		done <- struct{}{}
	}()
	<-done
	a.n = 2
	return a.n
}

// --- diagnosed: a mutex held on both sides is no exemption ---------

type guarded struct {
	mu sync.Mutex
	n  int
}

func lockedBoth(g *guarded, done chan struct{}) {
	go func() {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
		done <- struct{}{}
	}()
	g.mu.Lock()
	g.n++ // want `write of n races the goroutine`
	g.mu.Unlock()
	<-done
}

// --- suppression ----------------------------------------------------

func justified(a *agg, done chan struct{}) {
	go func() {
		bump(a)
		done <- struct{}{}
	}()
	//mclegal:sharedwrite monotonic telemetry counter, a torn read only skews one sample
	a.n++
	<-done
}

func bare(a *agg, done chan struct{}) {
	go func() {
		bump(a)
		done <- struct{}{}
	}()
	//mclegal:sharedwrite
	a.n++ // want `missing a justification`
	<-done
}
