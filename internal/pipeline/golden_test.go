//go:build amd64 && !amd64.v3

// The digests below are those of amd64 without fused multiply-add: at
// GOAMD64=v3 and on ports such as arm64 the compiler may fuse x*y+z into
// one rounding, which moves the last bit of every product-sum.

package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"arams/internal/imgproc"
	"arams/internal/lcls"
	"arams/internal/mat"
	"arams/internal/sketch"
	"arams/internal/umap"
)

func digestSnapshot(h hash.Hash, s *Snapshot) {
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range s.Embedding.Data {
		u64(math.Float64bits(v))
	}
	for _, v := range s.OutlierScores {
		u64(math.Float64bits(v))
	}
	for _, v := range s.Labels {
		u64(uint64(int64(v)))
	}
	for _, v := range s.Outliers {
		u64(uint64(v))
	}
}

// TestGoldenSnapshotDigests pins the exact bytes of the operator's live
// view — embedding, outlier scores, cluster labels, flagged outliers —
// for a full Snapshot followed by a QuickSnapshot on two fixed seeded
// streams. The digests were generated at the commit before OPTICS went
// dense and the kNN callers moved to the typed k-selection, so they
// prove the read-path rewrite changed no bit of any snapshot. Kernel
// summation order depends on the pool width, so each case is pinned for
// the widths it was recorded at and skipped elsewhere.
func TestGoldenSnapshotDigests(t *testing.T) {
	cfg := func(shards int) Config {
		return Config{
			Pre:         imgproc.Preprocessor{Normalize: true},
			Sketch:      sketch.Config{Ell0: 25, Beta: 0.9, Seed: 1},
			LatentDim:   12,
			UMAP:        umap.Config{NNeighbors: 10, NEpochs: 80, Seed: 2},
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
		warm, more     int
		frames         func(n int) []*imgproc.Image
		want           map[int]string
	}{
		{"beam-1shard-w512", 1, 512, 640, 64, beam, map[int]string{
			1: "2d6dd6a1110fc45b0b3844a09954e131c4b3c77cb8a3a0b2c88122bdaadb40c9",
			2: "5c1f796586bd8406428254903364b7173fb44d557ab812615b6a26bd4040a8e0",
		}},
		{"diffraction-2shard-w128", 2, 128, 256, 32, diffraction, map[int]string{
			1: "19540556539b6ee1012d9b489c1afce594e6e31e8c290988011b3a7bd91e3658",
			2: "27538e72b648b1ddd74a7ba3ab49a36cfbdbce382eb92e9324b318898c7d7d06",
		}},
	}
	for _, tc := range cases {
		want := tc.want[mat.Workers()]
		if want == "" {
			continue
		}
		m := NewMonitor(cfg(tc.shards), tc.window)
		ims := tc.frames(tc.warm + tc.more)
		const batch = 32
		for lo := 0; lo < tc.warm; lo += batch {
			m.IngestBatch(ims[lo:lo+batch], nil)
		}
		h := sha256.New()
		digestSnapshot(h, m.Snapshot())
		for lo := tc.warm; lo < len(ims); lo += batch {
			m.IngestBatch(ims[lo:lo+batch], nil)
		}
		model := m.cachedModel
		digestSnapshot(h, m.QuickSnapshot())
		if m.cachedModel != model {
			t.Errorf("%s: QuickSnapshot refitted; the digest must cover the Transform path", tc.name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: snapshot digest %s, want %s", tc.name, got, want)
		}
	}
}
