package engine_test

import (
	"fmt"
	"testing"

	"arams/internal/audit"
	"arams/internal/engine"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

// BenchmarkIngestWide streams d = 16384 vectors — diff_sharded's
// detector — through 1 and 2 shards at ℓ = 25, one 64-frame batch per
// iteration (about 2.5 rotations, whatever the shard count). Run it as
// two processes, GOMAXPROCS=1 and GOMAXPROCS=2 (the kernel pool is sized
// at first use): the four rows say what a second shard and a second
// core each buy on one host, which decides whether in-process row
// sharding earns its merge.
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

// BenchmarkSnapshotRead is what a snapshot pays before its first stage,
// at beam_liveview's window (512 × 4096) and at diff_sharded's detector
// (128 × 16384): the in-place read a QuickSnapshot makes — headers, tags
// and the basis — against the copying wrapper Snapshot and the
// repository benchmark still call, and that wrapper with its copy handed
// back to mat's vector pool, as Snapshot does. Run with -benchmem: the
// difference between the first two is the window, once, and the
// released copy's B/op is the in-place read's again. The one-shard
// basis is decomposed in the live sketch, so the in-place read is the
// k×d basis plus the headers: at issue 29, 378.6 kB in 6 allocations at
// 512 × 4096 and 1.45 MB at 128 × 16384, against 2.84 MB and 11.3 MB
// when the read cloned the 2ℓ×d buffer and decomposed the clone into an
// ℓ×d Vᵀ (0.83 against 1.67 ms and 1.7 against 5.5 ms on the 2-core
// container).
func BenchmarkSnapshotRead(b *testing.B) {
	for _, sh := range []struct{ window, d int }{{512, 4096}, {128, 16384}} {
		e := engine.New(engine.Config{Sketch: sketch.Config{Ell0: 25, Beta: 1, Seed: 5}, Window: sh.window})
		for n := 0; n < sh.window; n += 64 {
			e.IngestVecs(testVecs(64, sh.d, uint64(92+n)), nil)
		}
		name := fmt.Sprintf("%dx%d", sh.window, sh.d)
		b.Run(name+"/in_place", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := e.ReadWindow(11, obs.SpanContext{}); len(w.Rows) != sh.window {
					b.Fatal("short window")
				}
			}
		})
		b.Run(name+"/copy", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if x, _, _, _ := e.WindowState(11); x.RowsN != sh.window {
					b.Fatal("short window")
				}
			}
		})
		b.Run(name+"/copy_released", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, _, _, _ := e.WindowState(11)
				if x.RowsN != sh.window {
					b.Fatal("short window")
				}
				mat.PutVec(x.Data)
			}
		})
		e.Close()
	}
}

// BenchmarkAuditedIngestWide is lclsmon's sharded shape with no reader:
// 1 024 frames of diff_sharded's detector (d = 16384, ℓ = 25) in
// 32-frame batches, at 2 and 4 shards, with and without an auditor
// ticking every 32 frames. One iteration is a fresh engine, whose first
// batch (it allocates the shard sketches) runs untimed, and then the
// 1 024 timed frames; divide B/op by 1 024 for bytes per frame. An audit
// tick composes the shards' certificates, so the audited rows merge
// nothing.
func BenchmarkAuditedIngestWide(b *testing.B) {
	const d, frames, batch = 16384, 1024, 32
	vecs := testVecs(2*batch, d, 93)
	for _, shards := range []int{2, 4} {
		for _, audited := range []bool{false, true} {
			b.Run(fmt.Sprintf("shards=%d/audited=%v", shards, audited), func(b *testing.B) {
				b.ReportAllocs()
				merges := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var aud *audit.Auditor
					if audited {
						aud = audit.New(audit.Config{Journal: audit.NewJournal(64), Registry: obs.NewRegistry()})
					}
					e := engine.New(engine.Config{
						Shards:      shards,
						Sketch:      sketch.Config{Ell0: 25, Beta: 1, Seed: 5},
						Window:      128,
						Audit:       aud,
						FrameBudget: -1,
					})
					e.IngestVecs(cloneVecs(vecs[:batch]), nil)
					for lo := batch; lo <= frames; lo += batch {
						in := cloneVecs(vecs[lo%len(vecs) : lo%len(vecs)+batch]) // the engine takes ownership
						b.StartTimer()
						e.IngestVecs(in, nil)
						b.StopTimer()
					}
					merges += e.Reconciles()
					e.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*frames), "µs/frame")
				b.ReportMetric(float64(merges)/float64(b.N), "reconciles/op")
			})
		}
	}
}
