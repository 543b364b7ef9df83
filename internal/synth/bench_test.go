package synth

import "testing"

// BenchmarkGenerate times dataset generation (Fig. 1's streams).
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(Params{
			N: 500, D: 200, Rank: 100, Decay: SubExponential, Seed: uint64(i),
		})
	}
}
