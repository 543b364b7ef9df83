//go:build !race

package sketch

import (
	"runtime"
	"testing"

	"arams/internal/rng"
)

// TestSketchHoldsOnlyItsBuffer: Frequent Directions is an O(ℓd) summary
// of one 2ℓ×d buffer, and at diff_sharded's width (d = 16384, ℓ = 25) a
// sketch that has rotated ten times must hold that buffer — ℓ float64
// rows and ℓ float32 ones — and nothing d-long beside it: ℓ·d·(8+4) B
// plus 64 KiB for everything else. A cached ℓ×d Vᵀ beside the buffer
// would add two thirds of that again, and an all-float64 buffer, 2ℓ·d·8
// B, a third.
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
	if limit := uint64(ell*d*(8+4) + 64<<10); live > limit {
		t.Errorf("a sketch after ten rotations holds %d B; want at most ℓ·d·(8+4) B + 64 KiB = %d", live, limit)
	}
}

// TestRotationAfterCollectionsAllocatesUnderOneKeptBlock: a rotation
// reads its float32 rows widened a run of columns at a time, on the
// stack, never as a d-long float64 copy. Right after two collections —
// every pool and free list empty, so each piece of scratch the rotation
// takes is a fresh allocation — one rotation at d = 16384 allocates less
// than one ℓ×d float64 array, at every pool width; a widened copy of the
// incoming rows alone would be that much.
func TestRotationAfterCollectionsAllocatesUnderOneKeptBlock(t *testing.T) {
	const ell, d = 25, 16384
	x := goldenStream(2*ell+1, d, 30, 78)
	// A first sketch starts the kernel pool's workers.
	NewFrequentDirections(ell, d, Options{}).AppendMatrix(x)
	fd := NewFrequentDirections(ell, d, Options{})
	fd.AppendMatrix(x.Rows(0, 2*ell))
	liveHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fd.Append(x.Row(2 * ell)) // the buffer is full: this append rotates
	runtime.ReadMemStats(&after)
	if fd.Rotations() != 1 {
		t.Fatalf("%d rotations, want 1", fd.Rotations())
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(ell*d*8); got >= limit {
		t.Errorf("a rotation after two collections allocates %d B; want under one ℓ×d float64 array, %d B", got, limit)
	}
}
