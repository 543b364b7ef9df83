package engine_test

import (
	"math"
	"testing"

	"arams/internal/engine"
	"arams/internal/imgproc"
	"arams/internal/obs"
	"arams/internal/rng"
	"arams/internal/sketch"
)

// quietVecs builds an exactly rank-r stream (no noise): every frame
// lies in the span of r fixed directions, so FD rotations shrink by
// (numerically) nothing and the adaptive controller sees no staleness.
func quietVecs(n, d, r int, seed uint64) [][]float64 {
	g := rng.New(seed)
	base := make([][]float64, r)
	for i := range base {
		base[i] = make([]float64, d)
		for j := range base[i] {
			base[i][j] = g.Norm()
		}
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, d)
		for k, b := range base {
			w := g.Norm() * float64(r-k)
			for j := range v {
				v[j] += w * b[j]
			}
		}
		vecs[i] = v
	}
	return vecs
}

// runCadence streams vecs through a fresh 4-shard engine whose
// reconcile controller is tuned by (every, maxLag; 0 = default) and
// returns the engine plus its during-ingest reconcile count (read
// before Certificate forces one final merge).
func runCadence(vecs [][]float64, every, maxLag int) (*engine.Engine, int) {
	e := engine.New(engine.Config{
		Shards:          4,
		ReconcileEvery:  every,
		ReconcileMaxLag: maxLag,
		Sketch:          sketch.Config{Ell0: 8, Beta: 1, Seed: 5},
		Window:          32,
	})
	for lo := 0; lo < len(vecs); lo += cadenceBatch {
		hi := min(lo+cadenceBatch, len(vecs))
		e.IngestVecs(cloneVecs(vecs[lo:hi]), nil)
	}
	return e, e.Reconciles()
}

const cadenceBatch = 16

// sameGlobalSketch asserts the two engines' merged global sketches are
// bit-identical: same matrix, same row count, same shrinkage ledger.
func sameGlobalSketch(t *testing.T, eA, eB *engine.Engine) {
	t.Helper()
	gA, gB := eA.GlobalSketch(), eB.GlobalSketch()
	if gA == nil || gB == nil {
		t.Fatal("nil global sketch")
	}
	if gA.Seen() != gB.Seen() {
		t.Fatalf("row counts differ: %d vs %d", gA.Seen(), gB.Seen())
	}
	if gA.Delta() != gB.Delta() {
		t.Fatalf("shrinkage ledgers differ: Σδ=%v vs Σδ=%v", gA.Delta(), gB.Delta())
	}
	bA, bB := gA.Sketch(), gB.Sketch()
	if bA.RowsN != bB.RowsN || bA.ColsN != bB.ColsN {
		t.Fatalf("sketch shapes differ: %dx%d vs %dx%d",
			bA.RowsN, bA.ColsN, bB.RowsN, bB.ColsN)
	}
	for i := 0; i < bA.RowsN; i++ {
		ra, rb := bA.Row(i), bB.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("sketch row %d col %d differs: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
}

// TestReconcileCadenceInvariant is the cadence-equivalence property
// test: reconciles only snapshot shard state — they never mutate it —
// so running the same stream under differently tuned controllers (a
// fine and a coarse hysteresis scale, a tight lag cap) must end with
// bit-identical global sketches and certificates, no matter how
// differently the cadences scheduled their merges along the way.
func TestReconcileCadenceInvariant(t *testing.T) {
	const n, d = 256, 24
	vecs := testVecs(n, d, 71)

	eRef, recRef := runCadence(vecs, 16, 0)
	cRef := eRef.Certificate()
	differed := false
	for _, tc := range []struct{ every, maxLag int }{{128, 0}, {16, 24}} {
		e, rec := runCadence(vecs, tc.every, tc.maxLag)
		differed = differed || rec != recRef
		sameGlobalSketch(t, eRef, e)
		c := e.Certificate()
		if cRef.Rows != c.Rows {
			t.Fatalf("every=%d maxLag=%d: certificate rows differ: %d vs %d", tc.every, tc.maxLag, cRef.Rows, c.Rows)
		}
		if cRef.CovBound() != c.CovBound() {
			t.Fatalf("every=%d maxLag=%d: certified bounds differ: %v vs %v", tc.every, tc.maxLag, cRef.CovBound(), c.CovBound())
		}
		if math.Abs(cRef.FrobMass-c.FrobMass) != 0 {
			t.Fatalf("every=%d maxLag=%d: certificate mass differs: %v vs %v", tc.every, tc.maxLag, cRef.FrobMass, c.FrobMass)
		}
	}
	if !differed {
		t.Fatalf("every configuration reconciled %d times; cadence not exercised", recRef)
	}
}

// TestAdaptiveReducesQuietReconciles pins the point of the
// staleness-driven cadence: on a stream adding no shrinkage the
// controller has no staleness signal, so it merges only at the hard lag
// cap (ReconcileMaxLag, default 8×ReconcileEvery) — once every maxLag
// frames, not once every ReconcileEvery — and because reconciles never
// mutate shards, a wider cap costs nothing in certified error.
func TestAdaptiveReducesQuietReconciles(t *testing.T) {
	const n, d, every = 192, 24, 8
	vecs := quietVecs(n, d, 3, 41)

	// Batches divide both caps, so the lag reaches each cap exactly.
	eWide, recWide := runCadence(vecs, every, 0) // cap 8×every = 64
	eTight, recTight := runCadence(vecs, every, 2*cadenceBatch)

	if want := n / (8 * every); recWide != want {
		t.Fatalf("quiet stream reconciled %d times at the default lag cap, want %d (only at the cap)", recWide, want)
	}
	if want := n / (2 * cadenceBatch); recTight != want {
		t.Fatalf("quiet stream reconciled %d times at lag cap %d, want %d", recTight, 2*cadenceBatch, want)
	}
	sameGlobalSketch(t, eWide, eTight)
	cW, cT := eWide.Certificate(), eTight.Certificate()
	if cW.CovBound() > cT.CovBound() {
		t.Fatalf("wider lag cap widened the certified bound: %v vs %v", cW.CovBound(), cT.CovBound())
	}
}

// TestQueueDepthGaugeZeroAfterStop is the regression test for the
// stale arams_engine_queue_depth gauge: the Enqueue-side sample could
// race the pump and leave a nonzero depth sticking forever after the
// queue drained. The gauge is now sampled only by the pump — after
// each flush, and zeroed when the pump exits.
func TestQueueDepthGaugeZeroAfterStop(t *testing.T) {
	depth := obs.Default().Gauge("arams_engine_queue_depth")
	e := engine.New(engine.Config{
		Shards:       2,
		IngestBuffer: 8,
		BatchSize:    4,
		Sketch:       sketch.Config{Ell0: 4, Beta: 1},
		Window:       8,
	})
	im := imgproc.NewImage(3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			im.Set(x, y, float64(1+x+2*y))
		}
	}
	const n = 24
	for i := 0; i < n; i++ {
		e.Enqueue(im, i)
	}
	e.Drain()
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth gauge reads %v after Drain, want 0", got)
	}
	for i := n; i < 2*n; i++ {
		e.Enqueue(im, i)
	}
	e.Stop()
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth gauge reads %v after Stop, want 0", got)
	}
	if got := e.Ingested(); got != 2*n {
		t.Fatalf("ingested %d frames, want %d", got, 2*n)
	}
}
