//go:build !race

package sketch

import (
	"runtime"
	"testing"

	"arams/internal/rng"
)

// liveHeap is the heap still reachable after collection. Two cycles:
// the kernels' pooled scratch sits in sync.Pools, whose victim caches
// survive one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSketchHoldsOnlyItsBuffer: Frequent Directions is an O(ℓd) summary
// of one 2ℓ×d buffer, and at diff_sharded's width (d = 16384, ℓ = 25)
// a sketch that has rotated ten times must hold that buffer and nothing
// d-long beside it — 2ℓ·d·8 B plus 64 KiB for everything else. Before
// issue 29 it also held an ℓ×d Vᵀ, half as much again.
func TestSketchHoldsOnlyItsBuffer(t *testing.T) {
	const ell, d = 25, 16384
	g := rng.New(29)
	row := make([]float64, d)
	feed := func(fd *FrequentDirections, rows int) {
		for i := 0; i < rows; i++ {
			for j := range row {
				row[j] = g.Norm()
			}
			fd.Append(row)
		}
	}
	// A first sketch starts the kernel pool and sizes its scratch.
	feed(NewFrequentDirections(ell, d, Options{}), 3*ell)

	base := liveHeap()
	fd := NewFrequentDirections(ell, d, Options{})
	feed(fd, 2*ell+9*ell+1)
	if fd.Rotations() != 10 {
		t.Fatalf("%d rotations, want 10", fd.Rotations())
	}
	live := liveHeap() - base
	runtime.KeepAlive(fd)
	if limit := uint64(2*ell*d*8 + 64<<10); live > limit {
		t.Errorf("a sketch after ten rotations holds %d B; want at most 2ℓ·d·8 B + 64 KiB = %d", live, limit)
	}
}
