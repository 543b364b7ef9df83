//go:build !race

package mat

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// onGoroutine runs f on a goroutine of its own and waits for it, so
// successive calls may run on different Ps.
func onGoroutine(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// TestVecPoolBigClassSharedByEveryGoroutine: an array of a big class put
// on one goroutine comes back, zeroed, to a get on another — whichever Ps
// they ran on — newest first, and the class keeps every array put.
// Collection is off: two collections with no get or put of the class in
// between free its list. (Under -race sync.Pool drops a quarter of the
// list's copies, so the file is built without it.)
func TestVecPoolBigClassSharedByEveryGoroutine(t *testing.T) {
	const n = bigMin + 7 // a class of its own
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	put := make([]*float64, 12)
	for i := range put {
		v := make([]float64, n)
		v[n-1] = 1
		put[i] = &v[0]
		onGoroutine(func() { PutVec(v) })
	}
	for i := len(put) - 1; i >= 0; i-- {
		var v []float64
		onGoroutine(func() { v = GetVec(n) })
		if len(v) != n || cap(v) != n || v[n-1] != 0 {
			t.Fatalf("get %d: length %d, capacity %d, last element %v; want %d, %d, 0", len(put)-1-i, len(v), cap(v), v[n-1], n, n)
		}
		if &v[0] != put[i] {
			t.Errorf("get %d is not the array put %d-th", len(put)-1-i, i)
		}
	}
}

// TestVecPoolBigClassFirstUseConcurrent: goroutines that make a big
// class's first gets and puts at once still file every array on one
// list, so later gets, each on a goroutine of its own, find every one.
// It tries a hundred fresh classes, collecting between them.
func TestVecPoolBigClassFirstUseConcurrent(t *testing.T) {
	const g = 8
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for k := range 100 {
		n := bigMin + 100 + k // a class of its own
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			put  = map[*float32]bool{}
			gate = make(chan struct{})
		)
		for range g {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				v := GetVec32(n)
				mu.Lock()
				put[&v[0]] = true
				mu.Unlock()
				PutVec32(v)
			}()
		}
		close(gate)
		wg.Wait()
		total := len(put)
		for i := range total {
			var v []float32
			onGoroutine(func() { v = GetVec32(n) })
			if !put[&v[0]] {
				t.Fatalf("class %d: get %d of %d missed: the class's arrays are not on one list", k, i, total)
			}
			delete(put, &v[0])
		}
		runtime.GC()
	}
}

// TestVecPoolBigClassListCopiesBounded: gets and puts of a big class,
// with collection off, leave no more copies of its list in the pool than
// about two per P, however many they are.
func TestVecPoolBigClassListCopiesBounded(t *testing.T) {
	const n = bigMin + 13 // a class of its own
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 500 {
		var v []float64
		onGoroutine(func() { v = GetVec(n) })
		onGoroutine(func() { PutVec(v) })
	}
	c := vecs64.classFor(n)
	copies := 0
	for c.lists.Get() != nil {
		copies++
	}
	if limit := 2*runtime.GOMAXPROCS(0) + 2; copies > limit {
		t.Errorf("%d copies of the list in the pool after 1000 gets and puts; want at most %d", copies, limit)
	}
}
