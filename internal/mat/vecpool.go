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
// window evicts it or the engine closes, or, if a window read still
// holds it then, when the last such read or the shard that borrowed it
// as a sketch row lets go. A sketch's two ℓ×d blocks — its
// kept rows in float64 and the rows appended since its last rotation in
// float32 — come from here and back from their owners too: a closed
// shard returns its live sketch's, a sketch that borrows the window's
// vectors as its float32 rows its float32 block at its first rotation, a
// merge each operand it owns once the operand is folded, a basis reader
// the merged sketch once the basis is cut, a fabric shard's basis read
// the sketch it decoded from the worker's state, and a sketch that grows
// its old, narrower ones. A basis comes from here too (FD.Basis cuts into
// a k×d array): the reader of a one-shard window returns it on Release,
// and a sharded engine returns its cached read's once that read is
// superseded and its last reader has released it. A snapshot returns its
// n×d float64 copy of the window, and its basis, once its stages have
// read them; a projection of float32 rows its packed-row scratch, once
// the product is formed. Checkpoint state follows one
// rule: a state no live engine shares storage with owns it. Suspend
// moves the window vectors no other state holds and no open read holds,
// and each local shard's
// blocks into its state, and the checkpoint file decoder (ckpt.Load)
// draws a monitor state's window vectors and each rotated sketch's two
// blocks from here. The one restore from such a state takes that storage over,
// so the engine's evictions and Close return it; a state saved and not
// restored from returns it with Release. So a steady-state stream,
// reconciles, snapshots and hibernate→restore cycles included, recycles
// a fixed set of buffers instead of allocating one per frame, per merge,
// per snapshot, per basis read or per restore.
//
// Each element type has its own pool, keyed by capacity: a put files a
// slice under cap(v), and a get of n reuses only an array of capacity
// exactly n, so an ℓ·d sketch block is never handed out as a d-long
// working vector (pinning ℓ times the memory the caller asked for) and
// a working vector never comes back too small for a sketch. A float32
// array lives only in the float32 pool, so it never comes back out as a
// float64 one. Deployments have a handful of fixed sizes in flight —
// raw W·H, the post-binning feature dimension, and one ℓ·d per sketch
// rank — so each class keeps a high hit rate.

// Arrays of bigMin elements or more — 256 KiB of float64: a sketch's
// kept block at ℓ = 25 and d = 64², a 12-row basis at d = 64², a
// projection's packed-row scratch block — do not pool in a sync.Pool of
// arrays. It
// files a put in the putting P's private slot, which a get on another P
// never looks in, and drops an array at the second collection after its
// put, so whether a reconcile's clone found the buffer the last reconcile
// released, or a restore's decoder the buffer the last hibernation
// released, depended on which Ps their goroutines ran on and on when the
// collector ran, and so did the bytes a run allocated. The same holds
// for a QuickSnapshot's scratch blocks, which the pool's worker
// goroutines take and put, and for a basis one reader releases and the
// next cuts into. A big class keeps one free list instead, which every P
// sees and which drops nothing on a collection while the class is in
// use: it holds every array put and not yet taken, so while its arrays
// come from gets it never holds more than the class had out at once. The
// list lives only in a sync.Pool, so two collections with no get or put
// of its class in between free it and every array on it, as they would
// free a sync.Pool's arrays. Frames of bigMin pixels or more (a 256 × 128
// detector or larger, unbinned; the paper's 2 MP detector) take this path
// too. No benchmark workload has frames that wide; EXPERIMENTS.md
// measures them on a wide-frame engine outside the benchmark.
const bigMin = 1 << 15

// vecPool holds the map from a capacity to the pool of arrays of exactly
// that capacity. The map is copy-on-write — a new capacity installs a
// grown copy — so the hot path is one atomic load and a map read, with
// no lock and no boxing of the key.
type vecPool[T float32 | float64] struct {
	classes atomic.Pointer[map[int]*class[T]]
	mu      sync.Mutex // serializes installs
	big     int        // classes of big elements or more keep a free list
}

// class pools the arrays of one capacity: below its pool's big bound in
// small, as *[]T; from it on, on the *freeList[T] held in lists, whose
// gets and puts mu serializes.
type class[T float32 | float64] struct {
	small sync.Pool
	mu    sync.Mutex
	lists sync.Pool
}

// freeList is a big class's free arrays, newest last.
type freeList[T float32 | float64] struct {
	arrs [][]T
}

// Every float32 array is a window vector, and a window vector is put on
// one goroutine and taken on another as a matter of course: evicted or
// released on the ingesting or hibernating goroutine, taken by narrow on
// the worker pool's goroutines or by a restore's decoder. So every
// float32 class keeps a free list, whatever its size: with a sync.Pool
// whether a restored engine's returned window was found depended on the
// P and the collector, and so did the bytes a stream allocated.
var (
	vecs64 = vecPool[float64]{big: bigMin}
	vecs32 = vecPool[float32]{big: 1}
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

// get returns a zeroed array of length n.
func (vp *vecPool[T]) get(n int) []T {
	if n <= 0 {
		return make([]T, n)
	}
	c := vp.classFor(n)
	var v []T
	if n >= vp.big {
		v = c.take()
	} else if p, ok := c.small.Get().(*[]T); ok {
		v = (*p)[:n]
	}
	if v == nil {
		return make([]T, n)
	}
	clear(v)
	return v
}

func (vp *vecPool[T]) put(v []T) {
	n := cap(v)
	if n == 0 {
		return
	}
	c := vp.classFor(n)
	if n >= vp.big {
		c.give(v[:n])
		return
	}
	// A variable of this branch's own, so that only a small put moves a
	// slice header to the heap: &v would move the parameter for every put.
	p := v[:0]
	c.small.Put(&p)
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
