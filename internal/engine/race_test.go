package engine_test

// Concurrency hammer for the engine, meant to run under -race: one
// producer alternating IngestVecs and IngestBatch, snapshot readers
// (ReadWindow/Basis/Certificate), and a checkpointer (State) all pound
// the same engine. Assertions are deliberately
// coarse — the point is that the race detector sees every lock edge:
// gate vs ingest, shard locks vs reconcile clones, the cached read's
// reuse vs readers holding views of its basis.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/sketch"
)

func TestEngineConcurrentHammer(t *testing.T) {
	const (
		streams  = 3
		batches  = 12
		batchLen = 8
		d        = 16
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

	// The one producer: three vector streams, then images preprocessed
	// on the pool and routed the same way.
	producersWG.Add(1)
	go func() {
		defer producersWG.Done()
		for p := 0; p < streams; p++ {
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
		}
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
// number of later merges and other readers' releases. One batch lands
// before the readers start, so the first read already merges; then one
// producer keeps both shards ingesting while two readers each take at
// least 200 Window and Engine bases, and go on until the engine has
// merged at least twice, however starved the producer is (a deadline
// fails the test). They hold the last few, release each Window as it
// drops out of the held set (an Engine basis is never released), and
// check, after every new read, that each held basis still has the bits
// it was handed — under -race, any write to a held view, or a read of
// one racing a later merge or a recycled array, is reported.
func TestEngineHeldBasisHammer(t *testing.T) {
	const (
		readers  = 2
		reads    = 200
		batchLen = 8
		d        = 16
		held     = 6
		merges   = 2
	)
	e := engine.New(engine.Config{
		Shards: 2,
		Sketch: sketch.Config{Ell0: 5, Beta: 1, Seed: 9},
		Window: 32,
	})
	defer e.Close()

	vecs := testVecs(16*batchLen, d, 300)
	e.IngestVecs(cloneVecs(vecs[:batchLen]), nil)
	var producersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	producersWG.Add(1)
	go func() {
		defer producersWG.Done()
		for b := 1; ; b = (b + 1) % 16 {
			select {
			case <-stop:
				return
			default:
			}
			e.IngestVecs(cloneVecs(vecs[b*batchLen:(b+1)*batchLen]), nil)
		}
	}()

	type view struct {
		basis *mat.Matrix
		want  []float64
		w     engine.Window // the zero Window for an Engine basis
	}
	deadline := time.Now().Add(time.Minute)
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			var views []view
			for i := 0; i < reads || e.Reconciles() < merges; i++ {
				if time.Now().After(deadline) {
					t.Errorf("%d merges after %d reads and a minute; want %d", e.Reconciles(), i, merges)
					return
				}
				var basis *mat.Matrix
				var w engine.Window
				if (i+r)%2 == 0 {
					w = e.ReadWindow(3, obs.SpanContext{})
					basis = w.Basis
				} else {
					basis, _ = e.Basis(3)
				}
				if basis == nil {
					t.Error("a read after the first batch landed returned no basis")
					return
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
}

// TestHeldWindowRowsUntilReleaseHammer: a read holds its rows until it
// is released, however far the stream runs on — a frame that leaves the
// ring meanwhile is parked, and the last Release that holds it recycles
// it — and a read still open at Close keeps its rows too. One producer
// keeps the engine ingesting fresh vectors, so every recycled frame is
// overwritten by a later narrowing; three readers each hold a Window
// across more than a window of ingests, one of them cutting a State once,
// and check that every row keeps the bits it was read with
// until it is released. Under -race a write to a held row is a reported
// race as well. Once every read is released the engine holds nothing
// for them.
func TestHeldWindowRowsUntilReleaseHammer(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			heldRowsSurviveUntilRelease(t, shards)
		})
	}
}

func heldRowsSurviveUntilRelease(t *testing.T, shards int) {
	const (
		readers  = 3
		reads    = 8
		window   = 16
		batchLen = 4
		d        = 64
	)
	e := engine.New(engine.Config{Shards: shards, Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 11}, Window: window})
	vecs := testVecs(8*window, d, 310)
	stop := make(chan struct{})
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		for lo := 0; ; lo = (lo + batchLen) % len(vecs) {
			select {
			case <-stop:
				return
			default:
			}
			e.IngestVecs(cloneVecs(vecs[lo:lo+batchLen]), nil)
		}
	}()

	clone := func(rows [][]float32) [][]float32 {
		out := make([][]float32, len(rows))
		for i, r := range rows {
			out[i] = slices.Clone(r)
		}
		return out
	}
	intact := func(w engine.Window, want [][]float32) bool {
		for i, r := range want {
			if !slices.Equal(w.Rows[i], r) {
				return false
			}
		}
		return true
	}
	var readersWG sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; i < reads; i++ {
				w := e.ReadWindow(3, obs.SpanContext{})
				if w.Rows == nil {
					runtime.Gosched()
					continue
				}
				want := clone(w.Rows)
				if r == 0 && i == reads/2 {
					e.State() // its frames are shared from here on, never recycled
				}
				for at := e.Ingested(); e.Ingested() < at+window+batchLen; {
					runtime.Gosched()
				}
				if !intact(w, want) {
					errs <- fmt.Sprintf("reader %d: a held row changed after its frame left the window", r)
					w.Release()
					return
				}
				w.Release()
			}
		}(r)
	}
	readersWG.Wait()
	close(stop)
	producer.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	last := e.ReadWindow(3, obs.SpanContext{})
	want := clone(last.Rows)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	other := engine.New(engine.Config{Shards: shards, Sketch: sketch.Config{Ell0: 4, Beta: 0.9, Seed: 12}, Window: window})
	defer other.Close()
	other.IngestVecs(cloneVecs(vecs[:4*window]), nil)
	if !intact(last, want) {
		t.Error("a read open at Close lost its rows before its Release")
	}
	last.Release()
	if holds, parked := e.Held(); holds != 0 || parked != 0 {
		t.Errorf("with every read released the engine keeps %d open reads and %d parked frames", holds, parked)
	}
}
