package sketch

import (
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

func BenchmarkFDAppend(b *testing.B) {
	g := rng.New(1)
	row := make([]float64, 4096)
	for i := range row {
		row[i] = g.Norm()
	}
	fd := NewFrequentDirections(32, 4096, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.Append(row)
	}
}

func BenchmarkARAMSBatch(b *testing.B) {
	g := rng.New(2)
	x := mat.RandGaussian(256, 512, g)
	cfg := Config{Ell0: 24, Beta: 0.8, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewARAMS(cfg, 512, 256)
		a.ProcessBatch(x)
	}
}

func BenchmarkPrioritySampler(b *testing.B) {
	g := rng.New(4)
	x := mat.RandGaussian(2048, 64, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampleBatch(x, 0.8, rng.New(uint64(i)), nil).selected()
	}
}

func BenchmarkCovErr(b *testing.B) {
	g := rng.New(5)
	a := mat.RandGaussian(512, 256, g)
	fd := NewFrequentDirections(24, 256, Options{})
	fd.AppendMatrix(a)
	sk := fd.Sketch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CovErr(a, sk)
	}
}

func BenchmarkEstimators(b *testing.B) {
	g := rng.New(6)
	x := mat.RandGaussian(128, 1024, g)
	fd := NewFrequentDirections(16, 1024, Options{})
	fd.AppendMatrix(x)
	vt := fd.Basis(8)
	for _, kind := range []EstimatorKind{GaussianProbe, Hutchinson, HutchPP} {
		b.Run(kind.String(), func(b *testing.B) {
			gg := rng.New(7)
			for i := 0; i < b.N; i++ {
				_ = EstimateResidualSqKind(kind, x, vt, 10, gg)
			}
		})
	}
}

// BenchmarkFDRotateSteadyState measures one full shrink cycle (ℓ
// appends + the rotation they trigger) after warmup. With the pooled
// Gram-SVD path, an fd-owned σ and Vᵀ written over the buffer the
// steady state must report zero allocs/op — the rotation runs at the
// machine repetition rate.
func BenchmarkFDRotateSteadyState(b *testing.B) {
	const ell, d = 32, 4096
	g := rng.New(7)
	row := make([]float64, d)
	for i := range row {
		row[i] = g.Norm()
	}
	fd := NewFrequentDirections(ell, d, Options{})
	// Warm up past the first rotation so buffers exist.
	for i := 0; i < 3*ell; i++ {
		fd.Append(row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < ell; j++ {
			fd.Append(row)
		}
	}
}

// BenchmarkFDMerge times the pairwise mergeable-summary operation.
func BenchmarkFDMerge(b *testing.B) {
	g := rng.New(20)
	x1 := mat.RandGaussian(200, 512, g)
	x2 := mat.RandGaussian(200, 512, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fd1 := NewFrequentDirections(24, 512, Options{})
		fd2 := NewFrequentDirections(24, 512, Options{})
		fd1.AppendMatrix(x1)
		fd2.AppendMatrix(x2)
		b.StartTimer()
		fd1.Merge(fd2)
	}
}

// BenchmarkRelProjErr times the error evaluation used in Fig. 3.
func BenchmarkRelProjErr(b *testing.B) {
	g := rng.New(4)
	a := mat.RandGaussian(256, 512, g)
	fd := NewFrequentDirections(24, 512, Options{})
	fd.AppendMatrix(a)
	basis := fd.Basis(fd.Ell())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RelProjErr(a, basis)
	}
}

// BenchmarkBaselineSketchers compares FD against the baseline sketchers
// of [5] on the same stream.
func BenchmarkBaselineSketchers(b *testing.B) {
	g := rng.New(24)
	x := mat.RandGaussian(1000, 200, g)
	const ell = 24
	for _, mk := range []func() Summarizer{
		func() Summarizer { return NewFrequentDirections(ell, 200, Options{}) },
		func() Summarizer { return NewRandomProjection(ell, 200, rng.New(25)) },
		func() Summarizer { return NewCountSketch(ell, 200, rng.New(26)) },
		func() Summarizer { return NewNormSampler(ell, 200, rng.New(27)) },
	} {
		name := mk().Name()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := mk()
				for r := 0; r < x.RowsN; r++ {
					s.Append(x.Row(r))
				}
				_ = s.Sketch()
			}
		})
	}
}
