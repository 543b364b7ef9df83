package mat

import (
	"sync"
	"sync/atomic"
)

// Pooled vectors for the streaming ingest hot path. Every frame that
// enters the engine needs a float64 working buffer the preprocessing
// chain can scribble on and the sketch can read, and a float32 copy the
// sliding window keeps; at 120 Hz with d up to a megapixel those
// allocations dominate the GC budget. The engine returns the working
// buffer here once the batch is absorbed, and the float32 copy when the
// window evicts it or a hibernating tenant releases its suspended
// window; a closed shard returns its 2ℓ×d sketch buffer. So a
// steady-state stream recycles a fixed set of buffers instead of
// allocating one per frame.
//
// Each element type has its own pool, keyed by capacity: a put files a
// slice under cap(v), and a get of n reuses only an array of capacity
// exactly n, so a 2ℓ·d sketch buffer is never handed out as a d-long
// working vector (pinning 2ℓ times the memory the caller asked for) and
// a working vector never comes back too small for a sketch. A float32
// array lives only in the float32 pool, so it never comes back out as a
// float64 one. Deployments have a handful of fixed sizes in flight —
// raw W·H, the post-binning feature dimension, and one 2ℓ·d per sketch
// rank — so each class keeps a high hit rate.

// vecPool holds the map from a capacity to the *sync.Pool of arrays of
// exactly that capacity. The map is copy-on-write — a new capacity
// installs a grown copy — so the hot path is one atomic load and a map
// read, with no lock and no boxing of the key.
type vecPool[T float32 | float64] struct {
	pools atomic.Pointer[map[int]*sync.Pool]
	mu    sync.Mutex // serializes installs
}

var (
	vecs64 vecPool[float64]
	vecs32 vecPool[float32]
)

func (vp *vecPool[T]) poolFor(n int) *sync.Pool {
	if m := vp.pools.Load(); m != nil {
		if p := (*m)[n]; p != nil {
			return p
		}
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	old := vp.pools.Load()
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
	vp.pools.Store(&m)
	return p
}

func (vp *vecPool[T]) get(n int) []T {
	if n <= 0 {
		return make([]T, n)
	}
	if v, ok := vp.poolFor(n).Get().(*[]T); ok {
		s := (*v)[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

func (vp *vecPool[T]) put(v []T) {
	if cap(v) == 0 {
		return
	}
	v = v[:0]
	vp.poolFor(cap(v)).Put(&v)
}

// GetVec returns a zeroed vector of length n, backed by recycled
// storage of capacity exactly n when the pool holds some.
func GetVec(n int) []float64 { return vecs64.get(n) }

// PutVec recycles a vector obtained from GetVec (or anywhere else — the
// pool only cares about the backing array), filed under its capacity.
// The caller must not touch v, or any slice sharing its array,
// afterwards. Nil and zero-capacity slices are dropped.
func PutVec(v []float64) { vecs64.put(v) }

// GetVec32 is GetVec for float32 vectors, from a pool of their own.
func GetVec32(n int) []float32 { return vecs32.get(n) }

// PutVec32 is PutVec for float32 vectors.
func PutVec32(v []float32) { vecs32.put(v) }

// Widen sets dst[i] = float64(src[i]), which is exact. The lengths must
// match.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("mat: Widen length mismatch")
	}
	dst = dst[:len(src)] // hoists the bounds check out of the loop
	for i, v := range src {
		dst[i] = float64(v)
	}
}
