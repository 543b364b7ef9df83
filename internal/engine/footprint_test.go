//go:build !race

package engine_test

import (
	"math"
	"runtime"
	"testing"

	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestOneShardReadAllocatesItsBasis: a one-shard read decomposes the
// live sketch where it lies, so at beam_liveview's window (512 × 4096)
// it allocates the k×d basis it returns and the window's headers — the
// row slice headers and the tags — and nothing the size of the 2ℓ×d
// buffer: measured, 6 allocations and under 2 KB beyond those two, for
// the spectrum and the matrix headers; 4 KiB is allowed. Before issue 29
// the read cloned the buffer first (1.6 MB) and decomposed the clone
// into an ℓ×d Vᵀ: 2.84 MB. (Under -race sync.Pool drops a share of what
// it is given, so the kernels' scratch would count; the file is built
// without it.)
func TestOneShardReadAllocatesItsBasis(t *testing.T) {
	const window, d, k = 512, 4096, 11
	e := engine.New(engine.Config{Sketch: sketch.Config{Ell0: 25, Beta: 1, Seed: 5}, Window: window})
	defer e.Close()
	for n := 0; n < window; n += 64 {
		e.IngestVecs(testVecs(64, d, uint64(92+n)), nil)
	}
	// The least any of ten reads allocates: a collection between two
	// reads empties the kernels' pools, and the read after it refills
	// them once.
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		w := e.ReadWindow(k, obs.SpanContext{})
		runtime.ReadMemStats(&after)
		if w.Basis.RowsN != k {
			t.Fatalf("basis has %d rows, want %d", w.Basis.RowsN, k)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	headers := window * (24 + 8) // a []float32 header and an int per frame
	if limit := uint64(k*d*8 + headers + 4<<10); least > limit {
		t.Errorf("a one-shard ReadWindow allocates %d B; want at most k·d·8 + headers + 4 KiB = %d", least, limit)
	}
}

// TestShardedReadFootprint: between reads a sharded engine keeps what
// its readers read — the merged sketch's ℓ×d basis, rank and certificate
// — not the merged sketch. After a read, a 2-shard engine at d = 4096
// holds its window, its two shards' 2ℓ×d buffers and the ℓ×d basis, plus
// 256 KiB of slack for everything else; caching the merged sketch
// instead held a third 2ℓ×d buffer, 800 KiB over the bound.
func TestShardedReadFootprint(t *testing.T) {
	const window, d, ell, batch = 64, 4096, 25, 32
	base := liveHeap()
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 5}, Window: window})
	defer e.Close()
	for n := 0; n < 4*window; n += batch {
		e.IngestVecs(testVecs(batch, d, uint64(200+n)), nil)
	}
	if basis, _ := e.Basis(ell); basis.RowsN != ell {
		t.Fatalf("basis has %d rows, want ℓ = %d", basis.RowsN, ell)
	}
	const buf = 2 * ell * d * 8
	limit := int64(window*d*4 + 2*buf + ell*d*8 + 256<<10)
	if live := int64(liveHeap()) - int64(base); live > limit {
		t.Errorf("after a read the engine holds %d B; want at most window + two 2ℓ×d buffers + ℓ×d + 256 KiB = %d",
			live, limit)
	}
}
