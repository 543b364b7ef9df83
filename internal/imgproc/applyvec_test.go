package imgproc

import (
	"math"
	"testing"
)

// applyVecConfigs covers every step of the chain, including the
// reshaping step (Bin) that forces applySteps to replace the caller's
// buffer mid-chain.
func applyVecConfigs() []Preprocessor {
	return []Preprocessor{
		{},
		{ThresholdFrac: 0.2},
		{Normalize: true},
		{BinFactor: 2},
		{ThresholdFrac: 0.1, Normalize: true},
		{ThresholdFrac: 0.1, BinFactor: 2, Normalize: true},
	}
}

// TestApplyVecMatchesApply pins the zero-copy ingest contract: for
// every preprocessor configuration, ApplyVec into a caller buffer
// produces exactly the pixels Apply produces, never mutates the input
// frame, and returns a vector of the post-chain length (which shrinks
// under binning).
func TestApplyVecMatchesApply(t *testing.T) {
	const w, h = 8, 6
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Set(x, y, float64(1+x)*math.Sqrt(float64(1+y)))
		}
	}
	orig := im.Clone()

	for ci, p := range applyVecConfigs() {
		want := p.Apply(im)
		for _, buf := range [][]float64{nil, make([]float64, 4), make([]float64, w*h)} {
			got := p.ApplyVec(im, buf)
			if len(got) != len(want.Pix) {
				t.Fatalf("config %d: ApplyVec length %d, want %d", ci, len(got), len(want.Pix))
			}
			for i := range got {
				if got[i] != want.Pix[i] {
					t.Fatalf("config %d: pixel %d = %v, want %v", ci, i, got[i], want.Pix[i])
				}
			}
		}
		for i := range im.Pix {
			if im.Pix[i] != orig.Pix[i] {
				t.Fatalf("config %d: ApplyVec mutated the input frame at pixel %d", ci, i)
			}
		}
	}
}
