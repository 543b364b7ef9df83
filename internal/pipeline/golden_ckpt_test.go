//go:build amd64 && !amd64.v3

// The digests below are those of amd64 without fused multiply-add (see
// golden_test.go for why other targets differ).

package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/pipeline"
	"arams/internal/sketch"
)

// TestGoldenCheckpointDigest pins the exact bytes of the checkpoint
// file ckpt.Save writes for m.State() after two fixed seeded streams —
// the streams of TestGoldenSnapshotDigests, without an auditor (journal
// timestamps are wall-clock). The digests were recorded at issue 25,
// the commit that replaced the Jacobi eigensolver under the FD rotation
// with tridiagonal QL (internal/mat/eig.go), which moves the low bits
// of every sketch row in the file and nothing else — the byte counts in
// the failure message are what they were; the digests before it, which
// showed a file written through shared vectors and the bounded chunk is
// byte-identical to one marshalled whole from a deep copy, are in the
// history of this file. Both were re-recorded when the window began to
// keep float32 frames: the file is a version 4 monitor frame, whose
// window frames are the float32 copies the window keeps — 9 347 302 and
// 4 983 186 bytes, against 17 735 910 and 7 080 338 at version 3 — while
// the shard states inside it, and every sketch frame, keep their bytes.
func TestGoldenCheckpointDigest(t *testing.T) {
	cfg := func(shards int) pipeline.Config {
		return pipeline.Config{
			Pre:         imgproc.Preprocessor{Normalize: true},
			Sketch:      sketch.Config{Ell0: 25, Beta: 0.9, Seed: 1},
			LatentDim:   12,
			Shards:      shards,
			FrameBudget: -1,
		}
	}
	beam := func(n int) []*imgproc.Image {
		out := make([]*imgproc.Image, n)
		for i, f := range lcls.NewBeamGenerator(lcls.BeamConfig{Size: 64, Seed: 20241001}).Generate(n) {
			out[i] = f.Image
		}
		return out
	}
	diffraction := func(n int) []*imgproc.Image {
		frames, _ := lcls.NewDiffractionGenerator(lcls.DiffractionConfig{Size: 64, Seed: 20241002}).Generate(n)
		out := make([]*imgproc.Image, n)
		for i, f := range frames {
			out[i] = f.Image
		}
		return out
	}
	cases := []struct {
		name           string
		shards, window int
		n              int
		frames         func(n int) []*imgproc.Image
		want           string
	}{
		{"beam-1shard-w512", 1, 512, 704, beam, "5e9e56fde9b48699f42e4ebbc5b4ed24b4e35c703382ac7d1d00bfad89686c63"},
		{"diffraction-2shard-w128", 2, 128, 288, diffraction, "a275428782125d6bd3e62871675c6d8e343f28c4036e9dc294cac5c2afa75227"},
	}
	for _, tc := range cases {
		m := pipeline.NewMonitor(cfg(tc.shards), tc.window)
		ims := tc.frames(tc.n)
		const batch = 32
		for lo := 0; lo < len(ims); lo += batch {
			m.IngestBatch(ims[lo:lo+batch], nil)
		}
		path := filepath.Join(t.TempDir(), "golden.ckpt")
		if err := ckpt.Save(path, m.State()); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s (%d bytes): checkpoint digest %s, want %s", tc.name, len(file), got, tc.want)
		}
		if err := m.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	}
}
