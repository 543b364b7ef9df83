package imgproc

import "testing"

func BenchmarkPreprocessorApply(b *testing.B) {
	im := gaussian(128, 128, 64, 64, 10, 5)
	p := Preprocessor{ThresholdFrac: 0.02, Normalize: true, BinFactor: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Apply(im)
	}
}

func BenchmarkCenterOfMass(b *testing.B) {
	im := gaussian(256, 256, 100, 140, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = im.CenterOfMass()
	}
}
