//go:build amd64 && !amd64.v3

// The digests below are those of amd64 without fused multiply-add (see
// internal/sketch/golden_test.go for why other targets differ).

package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/sketch"
)

// TestGoldenGlobalSketchDigest pins the exact bytes of a 4-shard
// engine's reconciled global sketch after a run fed by IngestBatch in
// fixed chunks over a fixed seeded stream: the SHA-256 of the canonical ckpt frame
// of GlobalSketch().State(). The digests were recorded at issue 25,
// the commit that replaced the cyclic Jacobi eigensolver under every
// rotation and merge fold with tridiagonal QL (internal/mat/eig.go):
// every sketch row moves in its low bits, so that change's proof is not
// these digests but the accuracy and whole-stream tests in
// internal/mat/equiv_test.go and internal/sketch/reference_test.go, and
// the old → new table in EXPERIMENTS.md, "Tridiagonal QL (issue 25)".
// The digests before it, which showed the single merge tree and the
// in-place fold changed no bit, are in the history of this file. FD
// absorbs one row at a time, so the chunk size moves no bit, and
// reconciles never mutate shards.
//
// Both were re-recorded when the sketch began to store the rows it
// appends at float32 until its next rotation, and a merge to round the
// rows it folds in the same way (EXPERIMENTS.md, "Rows wait at
// float32"); sketch.TestKeptRowsAreFloat64FDOfRoundedRows is that
// change's proof.
func TestGoldenGlobalSketchDigest(t *testing.T) {
	const chunk = 37 // divides neither stream: the last batch is short
	for _, tc := range []struct {
		name         string
		n, w, h, ell int
		seed         uint64
		want         string
	}{
		{"narrow", 400, 6, 4, 8, 71, "1ef7b1edd49cda2ca242c8aa1f105e9e8d2f5ff597b40a27a44ea6362090558f"},
		// 2ℓ×d = 50×4096 crosses the kernels' parallel threshold.
		{"wide", 240, 64, 64, 25, 72, "af6da98099c970b8f89eb5407cdd39b435d5b91fb77d47c88c25d91534139db0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(engine.Config{
				Shards: 4,
				Sketch: sketch.Config{Ell0: tc.ell, Beta: 1, Seed: 5},
				Window: 32,
			})
			defer e.Close()
			vecs := testVecs(tc.n, tc.w*tc.h, tc.seed)
			for lo := 0; lo < len(vecs); lo += chunk {
				var ims []*imgproc.Image
				var tags []int
				for i := lo; i < min(lo+chunk, len(vecs)); i++ {
					ims = append(ims, &imgproc.Image{W: tc.w, H: tc.h, Pix: vecs[i]})
					tags = append(tags, i)
				}
				e.IngestBatch(ims, tags)
			}
			g := e.GlobalSketch()
			if g == nil || g.Seen() != tc.n {
				t.Fatalf("global sketch missing or short: %v", g)
			}
			frame, err := ckpt.Marshal(g.State())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(frame)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("global sketch digest = %s, want %s", got, tc.want)
			}
		})
	}
}
