package mat

import (
	"sync"
	"testing"

	"arams/internal/rng"
)

// TestParallelForOnMultiWorkerPool exercises the chunking, enqueueing,
// and inline-fallback logic against a private 4-worker pool, so the
// multi-worker path runs (and runs under -race) even on a single-core
// host where the shared pool degrades to serial.
func TestParallelForOnMultiWorkerPool(t *testing.T) {
	queue := newPoolQueue(4)
	for _, n := range []int{1, 7, 64, 1000, 4097} {
		marks := make([]int32, n)
		parallelForOn(4, queue, n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i]++
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, m)
			}
		}
	}
}

// TestParallelForConcurrentCallers floods a small private pool from
// many goroutines at once, forcing the full-queue inline fallback while
// the race detector watches the WaitGroup handoff.
func TestParallelForConcurrentCallers(t *testing.T) {
	queue := newPoolQueue(2)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := 257 + 13*c
				sum := make([]int64, n)
				parallelForOn(2, queue, n, 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum[i] = int64(i)
					}
				})
				for i := range sum {
					if sum[i] != int64(i) {
						t.Errorf("caller %d: index %d not written", c, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestConcurrentSketchKernels rotates different buffers from several
// goroutines through one 2-wide pool — shards ingesting side by side —
// and holds every rotation to the bits a lone caller gets. Under -race
// this guards the per-call kernel job (GramTo's partials must not be
// shared) and the sync.Pool scratch inside SVDGramTo.
func TestConcurrentSketchKernels(t *testing.T) {
	withPoolWidth(2, func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			a := RandGaussian(26, 3000+700*w, rng.New(300+uint64(w)))
			want := New(12, a.ColsN)
			wantSigma := SVDGramTo(a, nil, want)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vt := New(12, a.ColsN)
				for iter := 0; iter < 10; iter++ {
					sigma := SVDGramTo(a, nil, vt)
					if _, _, ok := matDiff(vt, want, nil); !ok || firstDiff(sigma, wantSigma) >= 0 {
						t.Errorf("caller %d iter %d: rotation differs from a lone caller's", w, iter)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
