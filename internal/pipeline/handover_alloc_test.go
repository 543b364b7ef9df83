//go:build !race

package pipeline_test

// The race detector's sync.Pool drops puts at random, and the vector
// pool and the checkpoint chunk live in one, so the allocation a handed
// over array saves is only measured without it.

import (
	"path/filepath"
	"runtime"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// handoverConfig is a fixed-rank monitor: its whole sketch state is the
// 2ℓ×d buffer, with no rank-adaptive ring beside it.
func handoverConfig() pipeline.Config {
	return pipeline.Config{Sketch: sketch.Config{Ell0: 8, Beta: 1, Seed: 21}, LatentDim: 4}
}

// allocsPerCycle runs cycle twice to warm the pools, then returns the
// bytes it allocates per call over runs more.
func allocsPerCycle(runs int, cycle func()) uint64 {
	cycle()
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// savedMonitor streams two windows of side × side frames through a
// fresh monitor, checkpoints it to a file and closes it.
func savedMonitor(t *testing.T, window, side int) string {
	t.Helper()
	m := pipeline.NewMonitor(handoverConfig(), window)
	m.IngestBatch(chaosFrames(2*window, side, side, 97), nil)
	path := filepath.Join(t.TempDir(), "monitor.ckpt")
	if err := ckpt.Save(path, m.State()); err != nil {
		t.Fatal(err)
	}
	m.Engine().Close()
	return path
}

// restore loads a monitor from path.
func restore(t *testing.T, path string) *pipeline.Monitor {
	t.Helper()
	v, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.NewMonitorFromState(handoverConfig(), v.(*pipeline.MonitorState))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRestoreCloseReturnsDecodedStorage: the decoder draws the window
// vectors and the rotated sketch's buffer from the vector pool, the
// restore takes them over, and Close gives them back, so a
// Load → NewMonitorFromState → Close loop over one 128 × 4096 checkpoint
// allocates under a quarter of its 2 MiB window per cycle. Without the
// handover each cycle decoded the window and the sketch afresh.
func TestRestoreCloseReturnsDecodedStorage(t *testing.T) {
	const window, side = 128, 64
	path := savedMonitor(t, window, side)
	got := allocsPerCycle(8, func() { restore(t, path).Engine().Close() })
	if limit := uint64(window * side * side * 4 / 4); got >= limit {
		t.Errorf("restore → Close allocates %d B per cycle; want under %d (a quarter of the window)", got, limit)
	}
}

// TestSuspendSaveReleaseMovesTheSketch: Suspend moves the shard's live
// 2ℓ×d buffer into its state instead of copying it, Save streams it
// through a pooled chunk, and Release hands it and the window back, so
// Suspend → Save → Release of a d = 4096 monitor allocates under a
// quarter of that buffer, the encoder's own bookkeeping included. The
// monitor each cycle suspends is restored from the last cycle's file,
// outside the measurement.
func TestSuspendSaveReleaseMovesTheSketch(t *testing.T) {
	const window, side = 32, 64
	ell := handoverConfig().Sketch.Ell0
	bufBytes := uint64(8 * 2 * ell * side * side)
	path := savedMonitor(t, window, side)
	var total uint64
	const runs = 8
	for i := 0; i < runs+2; i++ {
		m := restore(t, path)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := m.Suspend()
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.Save(path, s); err != nil {
			t.Fatal(err)
		}
		s.Release()
		runtime.ReadMemStats(&after)
		if i >= 2 {
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	if got := total / runs; got >= bufBytes/4 {
		t.Errorf("Suspend → Save → Release allocates %d B; want under %d (a quarter of the 2ℓ×d buffer)", got, bufBytes/4)
	}
}
