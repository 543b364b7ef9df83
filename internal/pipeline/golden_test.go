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
// streams, so that a change which is meant to leave the read path alone
// can show it did. The digests were recorded at PR 23, the commit that
// replaced math.Pow in the UMAP SGD with the curve's power table
// (internal/umap/curve.go): each update there moves by ~1e-9 relative,
// the SGD amplifies that to a different layout of the same quality
// within ten epochs, and everything downstream of the embedding
// (OPTICS labels, ABOD scores) follows. That PR's proof is therefore
// not these digests but internal/umap/oracle_test.go (the new loops
// against the old ones over the first epochs) and the over-seeds quality
// tables in EXPERIMENTS.md, "Pow-free UMAP (issue 23)"; the digests
// before it (PR 19's, which showed dense OPTICS and the typed kNN
// selection changed no bit) are in the history of this file. Kernel
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
			1: "d870731e83b3d81ae58798d47c181fc9210da10f7800a645aa6d2d213afdc962",
			2: "690c7c2114bc8757fb9f341d80a03f603980bf35d3f7a2c634d52b3e5853d34c",
		}},
		{"diffraction-2shard-w128", 2, 128, 256, 32, diffraction, map[int]string{
			1: "20782b2029925c0a10596e3a22f5ba84f2c7ac4e614c8675d47a4fe60531e3d0",
			2: "2e3025a880c4ef0e5c9ec6b8bf3eb9e163632fa2c1d9287f6ee567a7fc625b28",
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
