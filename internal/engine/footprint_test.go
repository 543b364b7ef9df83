//go:build !race

package engine_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"arams/internal/engine"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// TestOneShardReadAllocatesItsBasis: a one-shard read decomposes the
// live sketch where it lies into a k×d basis from mat's vector pool, and
// Release hands that array back. So at beam_liveview's window
// (512 × 4096), a read that follows a released one cuts its basis into
// the released array and allocates the window's headers — the row slice
// headers and the tags — and nothing the size of the basis (352 KiB) or
// of the 2ℓ×d buffer: measured, under 2 KB beyond the headers, for the
// spectrum, the matrix header and the lease; 4 KiB is allowed. Before
// issue 29 the read cloned the buffer first (1.6 MB) and decomposed the
// clone into an ℓ×d Vᵀ: 2.84 MB; until reads were released each one
// allocated its k·d·8 basis. (Under -race sync.Pool drops a share of
// what it is given, so the kernels' scratch would count; the file is
// built without it.)
func TestOneShardReadAllocatesItsBasis(t *testing.T) {
	const window, d, k = 512, 4096, 11
	e := engine.New(engine.Config{Sketch: sketch.Config{Ell0: 25, Beta: 1, Seed: 5}, Window: window})
	defer e.Close()
	for n := 0; n < window; n += 64 {
		e.IngestVecs(testVecs(64, d, uint64(92+n)), nil)
	}
	e.ReadWindow(k, obs.SpanContext{}).Release()
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
		w.Release()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	headers := window * (24 + 8) // a []float32 header and an int per frame
	if limit := uint64(headers + 4<<10); least > limit {
		t.Errorf("a one-shard ReadWindow after a released one allocates %d B; want at most headers + 4 KiB = %d (a k×d basis is %d B)",
			least, limit, k*d*8)
	}
}

// TestShardedReadFootprint: between reads a sharded engine keeps what
// its readers read — the basis cut from the last merge for the rows they
// asked, and its rank — not the merged sketch, nor more basis rows than
// were asked. After a released read of k = 11 rows at ℓ = 25, a 2-shard
// engine at d = 4096 holds its window, its two shards' ℓ×d float64
// blocks (their float32 rows are the window's own frames) and the k×d
// basis, plus 256 KiB of slack for everything else (measured: 42 KiB).
// Caching the merged sketch instead would hold a third sketch, 1.2 MB,
// and caching its ℓ×d basis 448 KiB more than the k×d one: either is
// more than the slack.
func TestShardedReadFootprint(t *testing.T) {
	const window, d, ell, k, batch = 64, 4096, 25, 11, 32
	base := liveHeap()
	e := engine.New(engine.Config{Shards: 2, Sketch: sketch.Config{Ell0: ell, Beta: 1, Seed: 5}, Window: window})
	defer e.Close()
	for n := 0; n < 4*window; n += batch {
		e.IngestVecs(testVecs(batch, d, uint64(200+n)), nil)
	}
	w := e.ReadWindow(k, obs.SpanContext{})
	if w.Basis.RowsN != k || w.Ell != ell {
		t.Fatalf("basis has %d rows at rank %d, want %d at ℓ = %d", w.Basis.RowsN, w.Ell, k, ell)
	}
	w.Release()
	const kept = ell * d * 8
	limit := int64(window*d*4 + 2*kept + k*d*8 + 256<<10)
	if live := int64(liveHeap()) - int64(base); live > limit {
		t.Errorf("after a read the engine holds %d B; want at most window + two ℓ×d float64 blocks + k×d + 256 KiB = %d",
			live, limit)
	}
}

// TestEngineShardHoldsOnlyItsKeptBlock: a local shard's float32 rows are
// the window's own vectors, so once it has rotated a shard fed by the
// engine holds one ℓ×d float64 block of sketch storage — ℓ·d·8 B, at
// diff_sharded's width (d = 16384, ℓ = 25) 3.3 MB — and no float32
// block beside it: after three rotations, at 1 and 2 shards, the engine
// holds its window, ℓ·d·8 B per shard and under 128 KiB of everything
// else (measured: 12 KiB at 1 shard, 24 KiB at 2). A float32 block of
// its own, the rows' second copy, would add ℓ·d·4 B per shard, 1.6 MB.
// A rank-adaptive shard (ε above any relative error, so ℓ stays) is held
// to the same limit: its probe reads those rows where they lie, and a
// float64 copy of the last ℓ rows for it would add ℓ·d·8 B per shard.
// The window (64 frames) is longer than the rows a shard can hold, so no
// frame is parked.
func TestEngineShardHoldsOnlyItsKeptBlock(t *testing.T) {
	const window, d, ell, batch = 64, 16384, 25, 32
	for _, cfg := range []sketch.Config{
		{Ell0: ell, Beta: 1, Seed: 5},
		{Ell0: ell, Beta: 1, Seed: 5, RankAdaptive: true, Eps: 10, Nu: 5},
	} {
		for _, shards := range []int{1, 2} {
			name := fmt.Sprintf("%d shards, rank-adaptive %v", shards, cfg.RankAdaptive)
			// A first engine starts the kernel pool and sizes its scratch.
			warm := engine.New(engine.Config{Shards: shards, Sketch: cfg, Window: window})
			warm.IngestVecs(testVecs(3*ell*shards, d, 290), nil)
			warm.Close()

			base := liveHeap()
			e := engine.New(engine.Config{Shards: shards, Sketch: cfg, Window: window})
			frames := (4*ell + 1) * shards // three rotations a shard
			for n := 0; n < frames; n += batch {
				e.IngestVecs(testVecs(min(batch, frames-n), d, uint64(300+n)), nil)
			}
			live := int64(liveHeap()) - int64(base)
			for si := 0; si < shards; si++ {
				st := e.ShardState(si)
				fd := &st.FD
				if fd.Rotations != 3 || fd.Ell != ell {
					t.Fatalf("%s: shard %d rotated %d times at ℓ = %d, want 3 at %d", name, si, fd.Rotations, fd.Ell, ell)
				}
			}
			if _, parked := e.Held(); parked != 0 {
				t.Fatalf("%s: %d frames parked", name, parked)
			}
			limit := int64(window*d*4 + shards*ell*d*8 + 128<<10)
			if live > limit {
				t.Errorf("%s: the engine holds %d B; want at most window + ℓ·d·8 per shard + 128 KiB = %d (a float32 block is %d B)",
					name, live, limit, ell*d*4)
			}
			e.Close()
		}
	}
}
