package engine_test

import (
	"fmt"
	"testing"

	"arams/internal/engine"
	"arams/internal/sketch"
)

// BenchmarkIngestWide streams d = 16384 vectors — diff_sharded's
// detector — through 1 and 2 shards at ℓ = 25, one 64-frame batch per
// iteration (about 2.5 rotations, whatever the shard count). Run it as
// two processes, GOMAXPROCS=1 and GOMAXPROCS=2 (the kernel pool is sized
// at first use): the four rows are ROADMAP item 5's question, what a
// second shard and a second core each buy on one host.
func BenchmarkIngestWide(b *testing.B) {
	const d, batch = 16384, 64
	vecs := testVecs(batch, d, 91)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := engine.New(engine.Config{
				Shards: shards,
				Sketch: sketch.Config{Ell0: 25, Beta: 1, Seed: 5},
				Window: batch,
			})
			defer e.Close()
			e.IngestVecs(cloneVecs(vecs), nil) // past the first rotations
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := cloneVecs(vecs) // the engine takes ownership
				b.StartTimer()
				e.IngestVecs(in, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/frame")
		})
	}
}
