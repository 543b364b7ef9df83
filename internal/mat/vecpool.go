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
// window. 2ℓ×d sketch buffers come back from their owners too: a closed
// shard returns its live sketch's, a merge each operand it owns once the
// operand is folded, a basis reader the merged sketch once the basis is
// cut, and a sketch that grows its old, narrower one. A snapshot returns
// its n×d float64 copy of the window once its stages have read it. So a
// steady-state stream, reconciles and snapshots included, recycles a
// fixed set of buffers instead of allocating one per frame, per merge or
// per snapshot.
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

// Arrays of bigMin elements or more — 4 MiB of float64, a sketch buffer
// at ℓ = 25 and d = 128² — do not pool in a sync.Pool of arrays. It files
// a put in the putting P's private slot, which a get on another P never
// looks in, and drops an array at the second collection after its put, so
// whether a reconcile's clone found the buffer the last reconcile
// released depended on which Ps its goroutines ran on and on when the
// collector ran, and so did the bytes a run allocated. A big class keeps
// one free list instead, which every P sees and which drops nothing on a
// collection while the class is in use: it holds every array put and not
// yet taken, so while its arrays come from gets it never holds more than
// the class had out at once. The list lives only in a sync.Pool, so two
// collections with no get or put of its class in between free it and
// every array on it, as they would free a sync.Pool's arrays. Frames of
// bigMin pixels or more (the paper's 2 MP detector, unbinned) take this
// path too. No benchmark workload has frames that wide; EXPERIMENTS.md
// measures them on a wide-frame engine outside the benchmark.
const bigMin = 1 << 19

// vecPool holds the map from a capacity to the pool of arrays of exactly
// that capacity. The map is copy-on-write — a new capacity installs a
// grown copy — so the hot path is one atomic load and a map read, with
// no lock and no boxing of the key.
type vecPool[T float32 | float64] struct {
	classes atomic.Pointer[map[int]*class[T]]
	mu      sync.Mutex // serializes installs
}

// class pools the arrays of one capacity: below bigMin in small, as
// *[]T; from bigMin on, on the *freeList[T] held in lists, whose gets and
// puts mu serializes.
type class[T float32 | float64] struct {
	small sync.Pool
	mu    sync.Mutex
	lists sync.Pool
}

// freeList is a big class's free arrays, newest last.
type freeList[T float32 | float64] struct {
	arrs [][]T
}

var (
	vecs64 vecPool[float64]
	vecs32 vecPool[float32]
)

func (vp *vecPool[T]) classFor(n int) *class[T] {
	if m := vp.classes.Load(); m != nil {
		if c := (*m)[n]; c != nil {
			return c
		}
	}
	vp.mu.Lock()
	defer vp.mu.Unlock()
	old := vp.classes.Load()
	if old != nil {
		if c := (*old)[n]; c != nil {
			return c
		}
	}
	m := make(map[int]*class[T], 1)
	if old != nil {
		for k, c := range *old {
			m[k] = c
		}
	}
	c := new(class[T])
	m[n] = c
	vp.classes.Store(&m)
	return c
}

// list returns the class's free list; the caller holds c.mu. The list
// lives only as copies in lists. A sync.Pool files a put in the putting
// P's private slot when that is empty, and a get on another P never looks
// there, so list takes out up to two copies and puts back two: the second
// lands in the shared part, where a get on any P finds it. list puts back
// more than it took only when this P sees fewer than two copies, so the
// pool holds about two copies per P at most, with or without collection.
// Under c.mu no copy is out of the pool while a get looks, so a get finds
// none only when the pool has dropped every copy, and only then does an
// empty list start. The exception is a goroutine moved to another P
// between the two puts, which leaves both copies in private slots: with
// three Ps or more, a get on a third P then starts a second list, and the
// class's hits split between the two lists until they go idle.
func (c *class[T]) list() *freeList[T] {
	l, _ := c.lists.Get().(*freeList[T])
	if l == nil {
		l = new(freeList[T])
	} else {
		c.lists.Get() // a second copy, when this P sees one
	}
	c.lists.Put(l)
	c.lists.Put(l)
	return l
}

// take pops the newest array on a big class's free list, or returns nil.
func (c *class[T]) take() []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.list()
	k := len(l.arrs) - 1
	if k < 0 {
		return nil
	}
	v := l.arrs[k]
	l.arrs[k] = nil
	l.arrs = l.arrs[:k]
	return v
}

// give files v on a big class's free list.
func (c *class[T]) give(v []T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.list()
	l.arrs = append(l.arrs, v)
}

func (vp *vecPool[T]) get(n int) []T {
	if n <= 0 {
		return make([]T, n)
	}
	c := vp.classFor(n)
	if n >= bigMin {
		if v := c.take(); v != nil {
			clear(v)
			return v
		}
		return make([]T, n)
	}
	if v, ok := c.small.Get().(*[]T); ok {
		s := (*v)[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

func (vp *vecPool[T]) put(v []T) {
	n := cap(v)
	if n == 0 {
		return
	}
	c := vp.classFor(n)
	if n >= bigMin {
		c.give(v[:n])
		return
	}
	v = v[:0]
	c.small.Put(&v)
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
