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
// can show it did. The digests were recorded at issue 25, the commit
// that replaced the cyclic Jacobi eigensolver under the FD rotation and
// UMAP's PCA initialisation with tridiagonal QL (internal/mat/eig.go):
// the basis moves in its low bits, the UMAP SGD amplifies that to a
// different layout of the same quality within ten epochs, and
// everything downstream of the embedding (OPTICS labels, ABOD scores)
// follows. Two facts make the re-record safe, neither of them these
// digests: the PCA latent of the golden window — UMAP's input — agrees
// with the one a Jacobi-backed stream produces to 1e-9
// (TestGoldenWindowLatentMatchesJacobiBackedStream, latent_test.go),
// and over seeds 1…30 of `aramsbench -exp fig5|fig6` every quality
// statistic's median sits inside the parent's inter-quartile range
// (EXPERIMENTS.md, "Tridiagonal QL (issue 25)"; the rule is PR 23's,
// whose own digests — recorded when the SGD's math.Pow became a power
// table — and PR 19's before them are in the history of this file).
//
// "diffraction-2shard-w128" alone was re-recorded at issue 29, when a
// sketch stopped caching Vᵀ beside its buffer: the merged global is
// compacted by its merge, and its basis used to be the fold's last
// rotation factors; it is now decomposed from the global's own rows —
// what a clone or a restored copy of it already returned. The two bases
// of the golden stream are at most 1.6e-14 apart in principal angle
// (1.3e-15 in any element), the UMAP SGD amplifies that as above, and
// the fig5/fig6 thirty-seed medians sit inside the parent's IQRs
// (EXPERIMENTS.md, "A sketch is its buffer (issue 29)"). Every other
// sketch, engine, fabric and checkpoint digest, and the one-shard case
// here, held.
//
// Both cases were re-recorded when the window began to keep each frame
// as a float32 copy: every latent row moves by the rounding of its
// frame, and the UMAP SGD amplifies that as above. The sketch
// absorbs the float64 frame as before, so every sketch, engine and
// fabric digest held. What the change may move is held instead by
// TestWindowLatentWithinFloat32OfFloat64Frames (latent_test.go): on
// these streams every latent element is within 2⁻²⁴·‖xᵢ‖₂ of the one
// float64 frames give — 0.08 of that bound at most — and over thirty
// seeds the snapshot's trustworthiness, OPTICS labels and ABOD top 2 %
// agree with the parent's as closely as a UMAP reseed of the parent does
// (EXPERIMENTS.md, "The window at float32").
//
// Both cases were re-recorded again when the sketch began to store the
// rows it appends at float32 until its next rotation: the basis moves by
// that rounding, and the UMAP SGD amplifies it as above. The fig5/fig6
// thirty-seed medians stayed inside the committed quartiles before
// internal/bench/testdata/quality.json was re-recorded (EXPERIMENTS.md,
// "Rows wait at float32").
func TestGoldenSnapshotDigests(t *testing.T) {
	want := map[string]string{
		"beam-1shard-w512":        "015f7c4435b443f19a7661170538cbe3e5ada76a4d1dd149a899248124d63cd7",
		"diffraction-2shard-w128": "27eb892c9b356627e359d2751c155da86189266a73b19a6908a5bd440de014e5",
	}
	for _, gs := range goldenStreams() {
		m := NewMonitor(goldenConfig(gs.shards), gs.window)
		ims := gs.images
		const batch = 32
		for lo := 0; lo < gs.warm; lo += batch {
			m.IngestBatch(ims[lo:lo+batch], nil)
		}
		h := sha256.New()
		digestSnapshot(h, m.Snapshot())
		for lo := gs.warm; lo < len(ims); lo += batch {
			m.IngestBatch(ims[lo:lo+batch], nil)
		}
		model := m.cachedModel
		digestSnapshot(h, m.QuickSnapshot())
		if m.cachedModel != model {
			t.Errorf("%s: QuickSnapshot refitted; the digest must cover the Transform path", gs.name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[gs.name] {
			t.Errorf("%s: snapshot digest %s, want %s", gs.name, got, want[gs.name])
		}
	}
}
