//go:build !race

package pipeline_test

// The race detector's sync.Pool drops puts at random, and mat's big-class
// free list lives in one, so the allocation a pooled array saves is only
// measured without it.

import (
	"runtime"
	"testing"

	"arams/internal/pipeline"
	"arams/internal/umap"
)

// TestSnapshotReleasesItsWindowCopy is the ownership rule of
// Engine.WindowState as Monitor.Snapshot keeps it: the snapshot hands its
// float64 window copy back to mat's vector pool once its stages return,
// so a second Snapshot of a 512 × 4096 window, with no ingest in between,
// copies into the same array and allocates under a quarter of the
// 16.8 MB copy.
func TestSnapshotReleasesItsWindowCopy(t *testing.T) {
	const window, side, batch = 512, 64, 32
	frames := chaosFrames(batch, side, side, 98)
	cfg := chaosConfig()
	cfg.UMAP = umap.Config{NNeighbors: 8, NEpochs: 10, Seed: 99}
	m := pipeline.NewMonitor(cfg, window)
	defer m.Engine().Close()
	for n := 0; n < window; n += batch {
		m.IngestBatch(frames, nil)
	}
	if m.Snapshot() == nil {
		t.Fatal("no snapshot")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := m.Snapshot()
	runtime.ReadMemStats(&after)
	if snap == nil || len(snap.Residuals) != window {
		t.Fatal("no snapshot of the full window")
	}
	const copyBytes = window * side * side * 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= copyBytes/4 {
		t.Errorf("a warm Snapshot allocates %d B beside its %d-byte window copy; want under a quarter of it", got, copyBytes)
	}
}
