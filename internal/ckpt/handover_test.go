package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// TestDecodedSketchReservesOnlyRotatedBuffers pins the bound on what a
// monitor frame's decode reserves: streamed from a file (Load), a shard
// sketch that has rotated (ℓ or more occupied rows) decodes into its
// whole ℓ×d float64 and float32 arrays — the float64 one exactly the
// kept rows the payload carries, the float32 one half as many bytes —
// which a restore adopts; one that has not decodes its occupied rows
// alone, as before, for the restore to copy. The slice form (Unmarshal)
// and a bare sketch frame never reserve.
func TestDecodedSketchReservesOnlyRotatedBuffers(t *testing.T) {
	dir := t.TempDir()
	exact := func(fd *sketch.FDState) bool {
		return cap(fd.Kept) == len(fd.Kept) && cap(fd.Incoming) == len(fd.Incoming)
	}
	for _, tc := range []struct {
		frames   int
		reserved bool
	}{{3, false}, {10, true}} { // ℓ = 4: 3 rows have not rotated; 10 have, leaving 6 occupied
		st := testMonitor(t, tc.frames).State()
		path := filepath.Join(dir, fmt.Sprintf("m%d.ckpt", tc.frames))
		if err := Save(path, st); err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		sliced, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		fd := loaded.(*pipeline.MonitorState).Shards[0].FD
		full := fd.Ell * fd.D
		got := cap(fd.Kept) == full && cap(fd.Incoming) == full
		if got != tc.reserved || (!tc.reserved && !exact(fd)) {
			t.Errorf("Load, %d frames, %d occupied rows of ℓ = %d: kept len %d cap %d, incoming len %d cap %d; want the ℓ·d = %d reservations %v",
				tc.frames, fd.NextZero, fd.Ell, len(fd.Kept), cap(fd.Kept), len(fd.Incoming), cap(fd.Incoming), full, tc.reserved)
		}
		if fd := sliced.(*pipeline.MonitorState).Shards[0].FD; !exact(fd) {
			t.Errorf("Unmarshal, %d frames: kept cap %d, incoming cap %d; want no reservation", tc.frames, cap(fd.Kept), cap(fd.Incoming))
		}
		bare, err := Marshal(fd)
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, fmt.Sprintf("fd%d.ckpt", tc.frames))
		if err := os.WriteFile(path, bare, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := Load(path); err != nil || !exact(v.(*sketch.FDState)) {
			t.Errorf("%d frames: a bare sketch frame decoded with a reservation (err %v)", tc.frames, err)
		}
	}
}

// TestConcurrentSaveLoadReleaseChunks runs Save and Load from several
// goroutines at once, each on its own file, so the pooled chunks and the
// pooled decode storage pass between calls under the race detector: every
// load must re-marshal to its own file's bytes, and every decoded state
// goes back through Release.
func TestConcurrentSaveLoadReleaseChunks(t *testing.T) {
	const workers, rounds = 4, 6
	dir := t.TempDir()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		st := wideMonitorState(40+20*w, 700)
		want, err := Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("w%d.ckpt", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := Save(path, st); err != nil {
					t.Error(err)
					return
				}
				v, err := Load(path)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Marshal(v)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s round %d: the loaded state does not re-marshal to the saved bytes (%v)", path, r, err)
					return
				}
				v.(*pipeline.MonitorState).Release()
			}
		}()
	}
	wg.Wait()
}
