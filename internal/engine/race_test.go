package engine_test

// Concurrency hammer for the engine, meant to run under -race:
// several IngestVecs producers, an IngestBatch producer, snapshot
// readers (ReadWindow/Basis/Certificate), and a checkpointer
// (State) all pound the same engine. Assertions are deliberately
// coarse — the point is that the race detector sees every lock edge:
// gate vs ingest, shard locks vs reconcile clones, the cached read's
// reuse vs readers holding views of its basis.

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

func TestEngineConcurrentHammer(t *testing.T) {
	const (
		producers = 3
		batches   = 12
		batchLen  = 8
		d         = 16
	)
	e := engine.New(engine.Config{
		Shards: 4,
		Sketch: sketch.Config{Ell0: 5, Beta: 0.9, Seed: 7},
		Window: 32,
	})

	shardRows := func(st *engine.State) int {
		rows := 0
		for _, ss := range st.Shards {
			if ss == nil {
				continue
			}
			fd := ss.FD
			if ss.RankAdaptive != nil {
				fd = &ss.RankAdaptive.FD
			}
			rows += fd.Seen
		}
		return rows
	}

	var producersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	var produced atomic.Int64

	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func(p int) {
			defer producersWG.Done()
			vecs := testVecs(batches*batchLen, d, uint64(100+p))
			for b := 0; b < batches; b++ {
				batch := cloneVecs(vecs[b*batchLen : (b+1)*batchLen])
				tags := make([]int, batchLen)
				for i := range tags {
					tags[i] = p*10000 + b*batchLen + i
				}
				e.IngestVecs(batch, tags)
				produced.Add(batchLen)
			}
		}(p)
	}

	// Image producer: preprocessing on the pool, then the same routing.
	producersWG.Add(1)
	go func() {
		defer producersWG.Done()
		im := imgproc.NewImage(4, 4)
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				im.Set(x, y, float64(1+x+y))
			}
		}
		for b := 0; b < 3; b++ {
			ims := make([]*imgproc.Image, 10)
			tags := make([]int, 10)
			for i := range ims {
				ims[i], tags[i] = im, 90000+b*10+i
			}
			e.IngestBatch(ims, tags)
			produced.Add(10)
		}
	}()

	// Snapshot readers.
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w := e.ReadWindow(4, obs.SpanContext{}); w.Rows != nil {
					if len(w.Tags) != len(w.Rows) {
						t.Error("torn window: tags/rows mismatch")
						return
					}
					if w.Basis.RowsN > w.Ell {
						t.Errorf("basis rows %d exceed rank %d", w.Basis.RowsN, w.Ell)
						return
					}
				}
				_ = e.Certificate()
				_ = e.Ell()
			}
		}()
	}

	// Checkpointer: State must always be a consistent cut. Rows reach
	// shards only after the ring/counter bookkeeping, and State takes
	// the gate exclusively, so a cut can never show more sketched rows
	// than counted ingests (sampling may legitimately show fewer).
	readersWG.Add(1)
	go func() {
		defer readersWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.State()
			if st.Ingests < len(st.Frames) {
				t.Errorf("torn state: %d ingests < %d frames", st.Ingests, len(st.Frames))
				return
			}
			if rows := shardRows(st); rows > st.Ingests {
				t.Errorf("torn state: %d sketched rows > %d ingests", rows, st.Ingests)
				return
			}
		}
	}()

	producersWG.Wait()
	close(stop)
	readersWG.Wait()

	want := int(produced.Load())
	if got := e.Ingested(); got != want {
		t.Fatalf("ingested %d frames, want %d", got, want)
	}
	rows := shardRows(e.State())
	if rows == 0 || rows > want {
		t.Fatalf("shards saw %d rows total, want within (0, %d]", rows, want)
	}
}

// TestEngineHeldBasisHammer: a basis handed out by a sharded engine is a
// view of the read cut from one merge, shared by every reader until the
// next, and it is held until released: readers may hold it across any
// number of later merges and other readers' releases. Two producers keep
// both shards ingesting while two readers each take 200 Window and
// Engine bases, hold the last few, release each Window as it drops out of
// the held set (an Engine basis is never released), and check, after
// every new read, that each held basis still has the bits it was handed
// — under -race, any write to a held view, or a read of one racing a
// later merge or a recycled array, is reported.
func TestEngineHeldBasisHammer(t *testing.T) {
	const (
		producers = 2
		readers   = 2
		reads     = 200
		batchLen  = 8
		d         = 16
		held      = 6
	)
	e := engine.New(engine.Config{
		Shards: 2,
		Sketch: sketch.Config{Ell0: 5, Beta: 1, Seed: 9},
		Window: 32,
	})
	defer e.Close()

	var producersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		producersWG.Add(1)
		go func(p int) {
			defer producersWG.Done()
			vecs := testVecs(16*batchLen, d, uint64(300+p))
			for b := 0; ; b = (b + 1) % 16 {
				select {
				case <-stop:
					return
				default:
				}
				e.IngestVecs(cloneVecs(vecs[b*batchLen:(b+1)*batchLen]), nil)
			}
		}(p)
	}

	type view struct {
		basis *mat.Matrix
		want  []float64
		w     engine.Window // the zero Window for an Engine basis
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			var views []view
			for i := 0; i < reads; i++ {
				var basis *mat.Matrix
				var w engine.Window
				if (i+r)%2 == 0 {
					w = e.ReadWindow(3, obs.SpanContext{})
					basis = w.Basis
				} else {
					basis, _ = e.Basis(3)
				}
				if basis == nil {
					continue
				}
				views = append(views, view{basis, slices.Clone(basis.Data[:basis.RowsN*basis.ColsN]), w})
				if len(views) > held {
					views[0].w.Release()
					views = views[1:]
				}
				for _, v := range views {
					if !slices.Equal(v.basis.Data[:v.basis.RowsN*v.basis.ColsN], v.want) {
						t.Error("a held basis changed after a later merge")
						return
					}
				}
			}
		}(r)
	}

	readersWG.Wait()
	close(stop)
	producersWG.Wait()
	if e.Reconciles() < 2 {
		t.Fatalf("%d merges over %d reads; the readers never saw a second merge", e.Reconciles(), readers*reads)
	}
}
