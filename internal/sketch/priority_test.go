package sketch

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
)

// weightRows builds one one-element row per weight, so that a row's
// norm, the sampler's priority weight, is its weight.
func weightRows(ws []float64) *mat.Matrix {
	x := mat.New(len(ws), 1)
	for i, w := range ws {
		x.Set(i, 0, w)
	}
	return x
}

// keptIndices returns the stream indices of the rows ps kept, in
// stream order.
func keptIndices(ps *PrioritySampler) []int {
	var idx []int
	for _, e := range ps.selected() {
		idx = append(idx, e.index)
	}
	return idx
}

// estimateSum is the priority-sampling estimate Σ max(wᵢ, τ) of the
// stream's total weight from the rows ps kept, τ being the (m+1)-th
// largest priority (0 when every row was kept) — unbiased per Duffield
// et al.
func estimateSum(ps *PrioritySampler) float64 {
	var tau float64
	if len(ps.heap) > ps.m {
		tau = ps.heap[0].priority
	}
	var s float64
	for _, e := range ps.selected() {
		s += math.Max(e.weight, tau)
	}
	return s
}

func TestPrioritySamplerKeepsM(t *testing.T) {
	g := rng.New(20)
	ws := make([]float64, 100)
	for i := range ws {
		ws[i] = 1 + g.Float64()
	}
	ps := sampleBatch(weightRows(ws), 0.05, g, nil)
	idx := keptIndices(ps)
	if len(idx) != 5 {
		t.Fatalf("kept %d items, want 5", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices not in ascending stream order")
		}
	}
	if ps.seen != 100 {
		t.Fatalf("seen = %d", ps.seen)
	}
}

func TestPrioritySamplerUnderfull(t *testing.T) {
	// ⌈0.99·4⌉ = 4 slots for 4 rows: everything is kept, there is no
	// threshold, and the estimate is the exact sum.
	ps := sampleBatch(weightRows([]float64{1, 2, 3, 4}), 0.99, rng.New(21), nil)
	if got := len(keptIndices(ps)); got != 4 {
		t.Fatalf("underfull sampler kept %d, want all 4", got)
	}
	if got := estimateSum(ps); math.Abs(got-10) > 1e-12 {
		t.Fatalf("underfull estimate = %v, want 10", got)
	}
}

func TestPrioritySamplingUnbiased(t *testing.T) {
	// E[Σ max(wᵢ, τ)] = Σ wᵢ — the Duffield-Lund-Thorup guarantee.
	weights := make([]float64, 200)
	var total float64
	base := rng.New(22)
	for i := range weights {
		weights[i] = base.Exp() * 10
		total += weights[i]
	}
	x := weightRows(weights)
	const trials = 3000
	var sum float64
	for trial := 0; trial < trials; trial++ {
		sum += estimateSum(sampleBatch(x, 0.15, rng.NewStream(uint64(trial), 777), nil))
	}
	meanEst := sum / trials
	if rel := math.Abs(meanEst-total) / total; rel > 0.05 {
		t.Fatalf("priority-sampling estimator biased: mean %v vs true %v (rel %v)", meanEst, total, rel)
	}
}

func TestPrioritySamplerFavorsHeavyRows(t *testing.T) {
	// With a handful of very heavy rows, the sampler should almost
	// always keep them.
	ws := make([]float64, 100)
	for i := range ws {
		ws[i] = 1
	}
	ws[42] = 1000
	x := weightRows(ws)
	const trials = 200
	kept := 0
	for trial := 0; trial < trials; trial++ {
		for _, idx := range keptIndices(sampleBatch(x, 0.1, rng.NewStream(uint64(trial), 31), nil)) {
			if idx == 42 {
				kept++
				break
			}
		}
	}
	if kept < trials*95/100 {
		t.Fatalf("heavy row kept only %d/%d times", kept, trials)
	}
}

func TestPushRowZeroWeightSkipped(t *testing.T) {
	x := mat.FromRows([][]float64{{0, 0, 0}, {1, 0, 0}})
	sel := sampleBatch(x, 0.99, rng.New(23), nil).selected()
	if len(sel) != 1 || sel[0].index != 1 {
		t.Fatalf("zero row not skipped: kept %d", len(sel))
	}
}

// TestSampleRowsShapes: a batch keeps ⌈β·n⌉ of its rows, whole, and
// β = 1 keeps every row.
func TestSampleRowsShapes(t *testing.T) {
	g := rng.New(24)
	x := mat.RandGaussian(50, 8, g)
	sel := sampleBatch(x, 0.5, g, nil).selected()
	if len(sel) != 25 {
		t.Fatalf("sampled %d rows, want 25", len(sel))
	}
	for _, e := range sel {
		if len(e.row) != 8 {
			t.Fatalf("sampled row has %d columns, want 8", len(e.row))
		}
	}
	for _, beta := range []float64{0.5, 1} {
		a := NewARAMS(Config{Ell0: 4, Beta: beta, Seed: 24}, 8, 50)
		if bs := a.ProcessBatch(x); bs.Kept != int(beta*50) || bs.Rows != 50 {
			t.Fatalf("β = %v: ProcessBatch kept %d of %d rows, want %d", beta, bs.Kept, bs.Rows, int(beta*50))
		}
	}
}

func TestSampleRowsKeepsStreamOrder(t *testing.T) {
	g := rng.New(25)
	// Rows with strictly increasing norms: row i is (i+1)·e₀.
	x := mat.New(30, 4)
	for i := 0; i < 30; i++ {
		x.Set(i, 0, float64(i+1))
	}
	prev := 0.0
	for _, e := range sampleBatch(x, 0.3, g, nil).selected() {
		if v := e.row[0]; v <= prev {
			t.Fatalf("selected rows out of stream order: %v after %v", v, prev)
		} else {
			prev = v
		}
	}
}

func TestSampleRowsInvalidBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("beta=0 did not panic")
		}
	}()
	sampleBatch(mat.New(3, 3), 0, rng.New(1), nil)
}

func TestSamplerPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 did not panic")
		}
	}()
	NewPrioritySampler(0, rng.New(1))
}

func TestARAMSSamplingImprovesSpeedNotMuchError(t *testing.T) {
	// Sanity check of §IV-B: sampling 80% of a low-rank-dominated
	// stream leaves the sketch error in the same regime.
	nRows, d := 300, 30
	g := rng.New(26)
	x := mat.RandGaussian(nRows, d, g)
	full := Run(x, Config{Ell0: 10, Beta: 1, Seed: 1})
	sampled := Run(x, Config{Ell0: 10, Beta: 0.8, Seed: 1})
	eFull := CovErr(x, full)
	eSampled := CovErr(x, sampled)
	if eSampled > 3*eFull+1e-9 {
		t.Fatalf("sampled error %v blew up vs full %v", eSampled, eFull)
	}
}
