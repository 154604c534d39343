package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

type buf struct{ b []byte }

// What a List holds survives garbage collections and is handed to
// whichever goroutine asks next, the most recently returned first; an
// empty List makes a new zero object.
func TestListKeepsObjectsAcrossCollections(t *testing.T) {
	var l List[buf]
	a, b := l.Get(), l.Get()
	if a == b || a.b != nil || b.b != nil {
		t.Fatalf("an empty list returned %p and %p; want two new zero objects", a, b)
	}
	a.b = make([]byte, 1<<10)
	l.Put(a)
	l.Put(b)
	runtime.GC()
	runtime.GC()
	got := make(chan *buf, 2)
	go func() { got <- l.Get(); got <- l.Get() }()
	if x, y := <-got, <-got; x != b || y != a || cap(y.b) != 1<<10 {
		t.Fatalf("after two collections Get returned %p then %p; want %p then %p with its buffer", x, y, b, a)
	}
	if c := l.Get(); c == a || c == b {
		t.Fatal("a drained list handed out an object still in use")
	}
}

// Goroutines sharing a List never hold the same object at once.
func TestListHandsEachObjectToOneHolder(t *testing.T) {
	type obj struct{ held atomic.Bool }
	var l List[obj]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				if x.held.Swap(true) {
					t.Error("an object was handed to two holders")
					return
				}
				x.held.Store(false)
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
