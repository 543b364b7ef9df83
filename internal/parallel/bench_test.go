package parallel

import (
	"fmt"
	"testing"

	"arams/internal/sketch"
	"arams/internal/synth"
)

// BenchmarkRun times parallel sketching with both merge strategies at
// several worker counts (the computation behind Fig. 2).
func BenchmarkRun(b *testing.B) {
	ds := synth.Generate(synth.Params{
		N: 512, D: 1024, Rank: 32, Decay: synth.Cubic, Seed: 3,
	})
	for _, strat := range []MergeStrategy{TreeMerge, SerialMerge} {
		for _, cores := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s-%dw", strat, cores), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Run(SplitRows(ds.A, cores), FDSketcher(24, sketch.Options{}), strat)
				}
			})
		}
	}
}
