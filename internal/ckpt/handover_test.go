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
// whole 2ℓ×d array, at most twice the floats the payload carries, which
// a restore adopts; one that has not decodes its occupied prefix alone,
// as before, for the restore to copy. The slice form (Unmarshal) and a
// bare sketch frame never reserve.
func TestDecodedSketchReservesOnlyRotatedBuffers(t *testing.T) {
	dir := t.TempDir()
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
		full := 2 * fd.Ell * fd.D
		if got := cap(fd.Buffer) == full; got != tc.reserved || (!tc.reserved && cap(fd.Buffer) != len(fd.Buffer)) {
			t.Errorf("Load, %d frames, %d occupied rows of ℓ = %d: buffer len %d cap %d; want the 2ℓ·d = %d reservation %v",
				tc.frames, fd.NextZero, fd.Ell, len(fd.Buffer), cap(fd.Buffer), full, tc.reserved)
		}
		if fd := sliced.(*pipeline.MonitorState).Shards[0].FD; cap(fd.Buffer) != len(fd.Buffer) {
			t.Errorf("Unmarshal, %d frames: buffer len %d cap %d; want no reservation", tc.frames, len(fd.Buffer), cap(fd.Buffer))
		}
		bare, err := Marshal(fd)
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, fmt.Sprintf("fd%d.ckpt", tc.frames))
		if err := os.WriteFile(path, bare, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, err := Load(path); err != nil || cap(v.(*sketch.FDState).Buffer) != len(fd.Buffer) {
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
