//go:build !race

package fabric_test

// The race detector's sync.Pool drops puts at random, and mat's big-class
// free list lives in one, so the allocation a pooled array saves is only
// measured without it.

import (
	"math"
	"runtime"
	"testing"

	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestRemoteReadReleasesItsSketch: a one-worker fabric engine's basis
// read fetches the worker's state, decodes its sketch into a 2ℓ×d buffer
// from mat's pool and cuts the basis from it; the buffer goes back once
// the basis is cut, so the next read decodes into the same array. A
// steady-state read then allocates what a bare state fetch (Remote.State:
// the same RPC and wire decode, no sketch) does, plus under half a 2ℓ×d
// buffer; a read that dropped the buffer would allocate all of it again
// (1 MiB here, a size mat keeps on its shared free list, so the hit does
// not depend on the P).
func TestRemoteReadReleasesItsSketch(t *testing.T) {
	const d, ell, k, reads = 4096, 16, 8, 10
	workers, addrs, err := startLoopbackWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer workers[0].Close()
	e, remotes := newFleetEngine(addrs, engine.Config{Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 5}, Window: 8},
		quietRemote())
	defer e.Close()
	e.IngestVecs(testVecs(4*ell, d, 83), nil)

	least := func(f func()) uint64 {
		out := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < reads; i++ {
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			out = min(out, after.TotalAlloc-before.TotalAlloc)
		}
		return out
	}
	read := func() {
		w := e.ReadWindow(k, obs.SpanContext{})
		if w.Basis == nil || w.Basis.RowsN != k {
			t.Fatalf("basis %v, want %d rows", w.Basis, k)
		}
		w.Release()
	}
	read()
	fetch := least(func() {
		if st, err := remotes[0].State(); err != nil || st == nil {
			t.Fatalf("state fetch: %v, %v", st, err)
		}
	})
	got := least(read)
	t.Logf("read %d B, state fetch %d B", got, fetch)
	const buf = 2 * ell * d * 8
	if got >= fetch+buf/2 {
		t.Errorf("a steady-state read allocates %d B, a state fetch %d B; want under the fetch + half the %d-byte 2ℓ×d buffer",
			got, fetch, buf)
	}
}
