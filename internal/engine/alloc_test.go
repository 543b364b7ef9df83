package engine_test

import (
	"runtime"
	"testing"

	"arams/internal/engine"
	"arams/internal/sketch"
)

// allocPerRun reports the mean allocation count and bytes of f over
// runs calls, after one warm-up call.
func allocPerRun(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	allocs = testing.AllocsPerRun(runs, func() {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	})
	// AllocsPerRun makes one extra warm-up call.
	return allocs, bytes / float64(runs+1)
}

// TestIngestAndAuditAllocNoRows pins the two per-frame costs the
// streaming path must not pay: absorbing one row through the live
// sampler (β < 1) and reading the one-shard certificate both leave the
// d-wide row and the 2ℓ×d buffer uncopied. Rotations reuse pooled
// storage, so they are inside the bound too.
func TestIngestAndAuditAllocNoRows(t *testing.T) {
	const d, ell = 4096, 8
	const rowBytes = 8 * d
	scfg := sketch.Config{Ell0: ell, Beta: 0.9, Seed: 3}
	vecs := testVecs(4*ell, d, 41)

	b := engine.NewLocalBackend(scfg)
	defer b.Close()
	if _, err := b.Absorb(vecs, nil); err != nil { // past the first rotations
		t.Fatal(err)
	}
	next := 0
	allocs, bytes := allocPerRun(6*ell, func() {
		if _, err := b.Absorb(vecs[next%len(vecs):next%len(vecs)+1], nil); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if bytes >= rowBytes/4 {
		t.Errorf("one-row Absorb allocates %.0f B (%.1f allocs) per call; a row is %d B", bytes, allocs, rowBytes)
	}

	e := engine.New(engine.Config{Sketch: scfg, Window: 4})
	defer e.Close()
	e.IngestVecs(cloneVecs(vecs), nil)
	allocs, bytes = allocPerRun(50, func() {
		if c := e.Certificate(); c.Rows != len(vecs) {
			t.Fatalf("certificate covers %d rows, want %d", c.Rows, len(vecs))
		}
	})
	if bytes >= rowBytes/4 {
		t.Errorf("Certificate allocates %.0f B (%.1f allocs) per call; a row is %d B", bytes, allocs, rowBytes)
	}
}
