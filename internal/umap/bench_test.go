package umap

import (
	"testing"

	"arams/internal/knn"
	"arams/internal/mat"
	"arams/internal/rng"
)

func BenchmarkFuzzyGraph(b *testing.B) {
	g := rng.New(1)
	x := mat.RandGaussian(400, 12, g)
	kg := knn.BruteForce(x, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildFuzzyGraph(kg)
	}
}

func BenchmarkFitSmall(b *testing.B) {
	g := rng.New(2)
	x := mat.RandGaussian(200, 10, g)
	cfg := Config{NNeighbors: 15, NEpochs: 100, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fit(x, cfg)
	}
}

// BenchmarkFitModel is the Snapshot fit: one window of 12-dim latent
// rows at the monitor's neighbourhood and epoch count.
func BenchmarkFitModel(b *testing.B) {
	x := mat.RandGaussian(512, 12, rng.New(6))
	cfg := Config{NNeighbors: 10, NEpochs: 80, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FitModel(x, cfg)
	}
}

// BenchmarkTransform is the QuickSnapshot placement: one window of
// latent rows into a model fitted on a window of the same size.
func BenchmarkTransform(b *testing.B) {
	g := rng.New(6)
	m := FitModel(mat.RandGaussian(512, 12, g), Config{NNeighbors: 10, NEpochs: 80, Seed: 7})
	x := mat.RandGaussian(512, 12, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transform(x)
	}
}
