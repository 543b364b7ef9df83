package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"arams/internal/obs"
)

// Checkpoint-file observability: save/restore counts and failures,
// the size of the last frame written, and the save latency (which an
// operator watches to size the checkpoint interval).
var (
	obsSaves         = obs.Default().Counter("arams_ckpt_saves_total")
	obsSaveErrors    = obs.Default().Counter("arams_ckpt_save_errors_total")
	obsRestores      = obs.Default().Counter("arams_ckpt_restores_total")
	obsRestoreErrors = obs.Default().Counter("arams_ckpt_restore_errors_total")
	obsBytes         = obs.Default().Gauge("arams_ckpt_last_bytes")
	obsSaveSeconds   = obs.Default().Histogram("arams_ckpt_save_seconds")
)

// Save atomically writes state as a checkpoint file: the frame streams
// (see encodeFrame) to a temporary file in the same directory, is fsynced,
// and is renamed over path, so a crash mid-save leaves either the old
// checkpoint or the new one — never a torn file. The containing
// directory is synced best-effort so the rename itself survives a power
// cut.
func Save(path string, state any) error {
	start := time.Now()
	err := save(path, state)
	if err != nil {
		obsSaveErrors.Inc()
		return err
	}
	obsSaves.Inc()
	obsSaveSeconds.Observe(time.Since(start).Seconds())
	return nil
}

func save(path string, state any) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	_, n, err := encodeFrame(tmp, state)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("ckpt: committing %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // not all filesystems support directory fsync; best-effort
		d.Close()
	}
	obsBytes.SetInt(n)
	return nil
}

// Load reads and decodes a checkpoint file written by Save, streaming
// it through one bounded chunk, pooled across calls: the file's size is
// held against the length its header declares before anything is
// allocated, and the only full-size memory a load touches is the state
// it returns. A monitor state it returns owns its storage, drawn from
// mat's vector pool: the window vectors and, for each shard sketch that
// has rotated, the whole 2ℓ×d buffer. The one monitor restored from it
// (pipeline.NewMonitorFromState) takes that storage over and its
// engine's Close gives it back; a state that is not restored from
// returns it with Release. See Unmarshal for the returned types and
// errors.
func Load(path string) (any, error) {
	state, err := load(path)
	if err != nil {
		obsRestoreErrors.Inc()
		return nil, err
	}
	obsRestores.Inc()
	return state, nil
}

func load(path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	state, err := decodeStream(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("ckpt: decoding %s: %w", path, err)
	}
	return state, nil
}
