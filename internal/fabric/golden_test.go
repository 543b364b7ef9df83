//go:build amd64 && !amd64.v3

// The digests below are those of amd64 without fused multiply-add (see
// internal/sketch/golden_test.go for why other targets differ).

package fabric_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"arams/internal/ckpt"
	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/sketch"
)

// TestGoldenLoopbackGlobalSketchDigest is the fabric twin of the
// engine's TestGoldenGlobalSketchDigest: a coordinator over two
// loopback workers, IngestBatch in fixed chunks over a fixed seeded
// stream, SHA-256 of the canonical ckpt frame of GlobalSketch().State(). Here
// every reconcile leg is a network fetch decoded into a fresh sketch,
// which the merge folds in place. Digests recorded at issue 25, the
// commit that replaced the Jacobi eigensolver under that fold with
// tridiagonal QL (see the engine golden); the ones before it, which
// showed the fold could stop cloning its inputs, are in this file's
// history.
//
// Both were re-recorded with the engine's when the sketch began to store
// the rows it appends at float32 until its next rotation.
func TestGoldenLoopbackGlobalSketchDigest(t *testing.T) {
	const chunk = 37 // divides neither stream: the last batch is short
	for _, tc := range []struct {
		name         string
		n, w, h, ell int
		seed         uint64
		want         string
	}{
		{"narrow", 300, 6, 4, 8, 81, "53d35b9bdd5782625f5912474bcca3591888788e31362db6339d760f1b6cfd98"},
		{"wide", 160, 64, 64, 25, 82, "d7ec5d21f7359e6adb1279184c11072ab325ad0eac78a06e0cbd941df6898342"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers, addrs, err := startLoopbackWorkers(2)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, w := range workers {
					w.Close()
				}
			}()
			e, remotes := newFleetEngine(addrs, engine.Config{
				Sketch: sketch.Config{Ell0: tc.ell, Beta: 1, Seed: 5},
				Window: 32,
			}, quietRemote())
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
			for _, r := range remotes {
				if r.Degraded() {
					t.Fatalf("%s degraded during a clean run", r.Name())
				}
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
