// Package freelist keeps the working storage of the solver stages
// (MGL's scratch, the maxdisp and refine workspaces) between runs.
//
// A List is a stack of idle objects behind a mutex. Unlike a
// sync.Pool it never drops what it holds: a garbage collection does
// not empty it, and a Get on one CPU finds an object that another CPU
// put back. A warm process therefore allocates for a request exactly
// what its input needs beyond the storage earlier requests grew,
// however the collector and the scheduler ran. The price is that the
// storage stays for the life of the process: as many objects as ever
// ran at once, each as large as the largest input it served.
package freelist

import "sync"

// A List hands out reusable *T. The zero List is empty and ready to
// use; a List must not be copied after first use.
type List[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get takes the most recently returned object off the list, or
// returns a new zero T when the list is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.idle)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	l.mu.Unlock()
	return x
}

// Put returns x to the list for a later Get. The caller must not use
// x afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.idle = append(l.idle, x)
	l.mu.Unlock()
}
