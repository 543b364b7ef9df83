package mat

import (
	"sync"
	"sync/atomic"
)

// Pooled float64 vectors for the streaming ingest hot path. Every frame
// that enters the engine needs a working buffer the preprocessing chain
// can scribble on and the sketch can adopt; at 120 Hz with d up to a
// megapixel those allocations dominate the GC budget. The engine
// returns vectors here when the sliding window evicts them or a
// hibernating tenant releases its suspended window, and a closed shard
// returns its 2ℓ×d sketch buffer, so a steady-state stream recycles a
// fixed set of buffers instead of allocating one per frame.
//
// The pool is keyed by capacity: PutVec files a slice under cap(v), and
// GetVec(n) reuses only an array of capacity exactly n, so a 2ℓ·d
// sketch buffer is never handed out as a d-long window vector (pinning
// 2ℓ times the memory the caller asked for) and a window vector never
// comes back too small for a sketch. Deployments have a handful of
// fixed sizes in flight — raw W·H, the post-binning feature dimension,
// and one 2ℓ·d per sketch rank — so each class keeps a high hit rate.

// vecPools holds the map from a capacity to the *sync.Pool of arrays of
// exactly that capacity. The map is copy-on-write — a new capacity
// installs a grown copy — so the hot path is one atomic load and a map
// read, with no lock and no boxing of the key.
var (
	vecPools   atomic.Pointer[map[int]*sync.Pool]
	vecPoolsMu sync.Mutex // serializes installs
)

func vecPoolFor(n int) *sync.Pool {
	if m := vecPools.Load(); m != nil {
		if p := (*m)[n]; p != nil {
			return p
		}
	}
	vecPoolsMu.Lock()
	defer vecPoolsMu.Unlock()
	old := vecPools.Load()
	if old != nil {
		if p := (*old)[n]; p != nil {
			return p
		}
	}
	m := make(map[int]*sync.Pool, 1)
	if old != nil {
		for k, p := range *old {
			m[k] = p
		}
	}
	p := new(sync.Pool)
	m[n] = p
	vecPools.Store(&m)
	return p
}

// GetVec returns a zeroed vector of length n, backed by recycled
// storage of capacity exactly n when the pool holds some.
func GetVec(n int) []float64 {
	if n <= 0 {
		return make([]float64, n)
	}
	if v, ok := vecPoolFor(n).Get().(*[]float64); ok {
		s := (*v)[:n]
		clear(s)
		return s
	}
	return make([]float64, n)
}

// PutVec recycles a vector obtained from GetVec (or anywhere else — the
// pool only cares about the backing array), filed under its capacity.
// The caller must not touch v, or any slice sharing its array,
// afterwards. Nil and zero-capacity slices are dropped.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	v = v[:0]
	vecPoolFor(cap(v)).Put(&v)
}
