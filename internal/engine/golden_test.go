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
	"arams/internal/mat"
	"arams/internal/sketch"
)

// TestGoldenGlobalSketchDigest pins the exact bytes of a 4-shard
// engine's reconciled global sketch after an async Enqueue/Drain run
// over a fixed seeded stream: the SHA-256 of the canonical ckpt frame
// of GlobalSketch().State(). The digests were recorded at the commit
// before the reconcile merge folded fetched shard snapshots in place,
// so they prove the single merge tree changed no bit of the engine's
// output. The pump's batch boundaries — and hence when reconciles ran
// along the way — vary from run to run; reconciles never mutate
// shards, so the digest does not.
func TestGoldenGlobalSketchDigest(t *testing.T) {
	// The wide shape (2ℓ×d = 50×4096) crosses the Gram kernel's
	// parallel threshold, where the summation order depends on the pool
	// width; it is pinned for the widths it was recorded at and skipped
	// elsewhere.
	wideWant := map[int]string{
		1: "d877a06e605b366491741afe52b1306b259e9e695a56a45f8dc3164fc7f71efe",
		2: "351d0f73baf01c06a551658cf293dac41ee76cc7b453eba70992c07ebbfc491e",
	}
	for _, tc := range []struct {
		name         string
		n, w, h, ell int
		seed         uint64
		want         string
	}{
		{"narrow", 400, 6, 4, 8, 71, "7f85c8abccd3f4de3a5eeed47ecec475af801c7efd97595741c063e66e26944c"},
		{"wide", 240, 64, 64, 25, 72, wideWant[mat.Workers()]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == "" {
				t.Skipf("no digest recorded for a %d-wide kernel pool", mat.Workers())
			}
			e := engine.New(engine.Config{
				Shards: 4,
				Sketch: sketch.Config{Ell0: tc.ell, Beta: 1, Seed: 5},
				Window: 32,
			})
			defer e.Close()
			for i, v := range testVecs(tc.n, tc.w*tc.h, tc.seed) {
				e.Enqueue(&imgproc.Image{W: tc.w, H: tc.h, Pix: v}, i)
			}
			e.Drain()
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
