package sketch

import (
	"math"
	"runtime"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/synth"
)

func TestEstimatorUnbiased(t *testing.T) {
	// The probe estimator must match the exact residual on average.
	g := rng.New(30)
	x := mat.RandGaussian(40, 25, g)
	_, _, vtFull := mat.SVD(x)
	vt, _, _ := truncBasis(vtFull, 5)
	exact := ProjErrSq(x, vt)
	const trials = 300
	var sum float64
	for i := 0; i < trials; i++ {
		sum += EstimateResidualSq(x, vt, 10, rng.NewStream(uint64(i), 5))
	}
	mean := sum / trials
	if rel := math.Abs(mean-exact) / exact; rel > 0.1 {
		t.Fatalf("estimator mean %v vs exact %v (rel %v)", mean, exact, rel)
	}
}

func truncBasis(vt *mat.Matrix, k int) (*mat.Matrix, []float64, *mat.Matrix) {
	out := mat.New(k, vt.ColsN)
	for i := 0; i < k; i++ {
		copy(out.Row(i), vt.Row(i))
	}
	return out, nil, nil
}

func TestEstimatorVarianceShrinksWithNu(t *testing.T) {
	// The paper reports ~10% error decrease per 10 extra probes; at
	// minimum, the estimator's spread must shrink as ν grows.
	g := rng.New(31)
	x := mat.RandGaussian(50, 20, g)
	_, _, vtFull := mat.SVD(x)
	vt, _, _ := truncBasis(vtFull, 4)
	exact := ProjErrSq(x, vt)
	spread := func(nu int) float64 {
		var s float64
		const trials = 120
		for i := 0; i < trials; i++ {
			est := EstimateResidualSq(x, vt, nu, rng.NewStream(uint64(i), uint64(nu)))
			s += math.Abs(est - exact)
		}
		return s / trials / exact
	}
	lo, hi := spread(40), spread(2)
	if lo >= hi {
		t.Fatalf("estimator spread did not shrink: nu=40 → %v, nu=2 → %v", lo, hi)
	}
}

func TestEstimatorExactSubspace(t *testing.T) {
	// Data living exactly in the basis has zero residual.
	ds := synth.Generate(synth.Params{N: 30, D: 20, Rank: 3, Decay: synth.Exponential, Seed: 32})
	vt := ds.V.T() // 3×20 orthonormal rows spanning the data
	est := EstimateResidualSq(ds.A, vt, 8, rng.New(1))
	if est > 1e-18*ds.A.FrobeniusNormSq() {
		t.Fatalf("in-subspace residual estimate %v, want ~0", est)
	}
}

func TestEstimatorEmptyBasis(t *testing.T) {
	g := rng.New(33)
	x := mat.RandGaussian(10, 8, g)
	// Empty basis: residual is the whole batch norm.
	var sum float64
	const trials = 400
	for i := 0; i < trials; i++ {
		sum += EstimateResidualSq(x, mat.New(0, 8), 5, rng.NewStream(uint64(i), 2))
	}
	mean := sum / trials
	want := x.FrobeniusNormSq()
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("empty-basis estimate %v, want ~%v", mean, want)
	}
}

func TestEstimateRelResidualZeroBatch(t *testing.T) {
	if got := EstimateRelResidual(mat.New(5, 4), mat.New(0, 4), 3, rng.New(1)); got != 0 {
		t.Fatalf("zero batch relative residual = %v", got)
	}
}

// TestRankAdaptHeuristicDirections: Algorithm 1's decision, the
// estimated relative residual against ε as rank adaptation reads it,
// passes a basis that spans the data and fails an empty one.
func TestRankAdaptHeuristicDirections(t *testing.T) {
	g := rng.New(34)
	ds := synth.Generate(synth.Params{N: 40, D: 30, Rank: 10, Decay: synth.Exponential, Seed: 35})
	fullBasis := ds.V.T()
	if EstimateRelResidual(ds.A, fullBasis, 10, g) >= 0.01 {
		t.Fatal("full basis should satisfy any reasonable eps")
	}
	empty := mat.New(0, 30)
	if EstimateRelResidual(ds.A, empty, 10, g) < 0.01 {
		t.Fatal("empty basis should fail a tight eps")
	}
}

func TestRankAdaptiveGrowsToMeetEps(t *testing.T) {
	// Rank-12 data with a sketch starting at ℓ=4 and a tight error
	// target: the rank must grow, and the final sketch must actually
	// achieve the target on the data.
	ds := synth.Generate(synth.Params{N: 600, D: 50, Rank: 12, Decay: synth.SubExponential, Seed: 36})
	r := newRankAdaptive(4, 50, 4, 0.02, 600, rng.New(37))
	r.AppendMatrix(ds.A)
	if r.grows == 0 {
		t.Fatal("rank never grew despite tight eps")
	}
	if r.Ell() <= 4 {
		t.Fatalf("Ell = %d, want > 4", r.Ell())
	}
	basis := r.Basis(r.Ell())
	rel := RelProjErr(ds.A, basis)
	if rel > 0.1 {
		t.Fatalf("final relative projection error %v too high after adaptation", rel)
	}
}

func TestRankAdaptiveStaysPutWhenEasy(t *testing.T) {
	// Rank-3 data with ℓ0=8 and a loose eps: no growth should occur.
	ds := synth.Generate(synth.Params{N: 300, D: 40, Rank: 3, Decay: synth.SuperExponential, Seed: 38})
	r := newRankAdaptive(8, 40, 4, 0.2, 300, rng.New(39))
	r.AppendMatrix(ds.A)
	if r.grows != 0 {
		t.Fatalf("rank grew %d times on easy data", r.grows)
	}
	if r.Ell() != 8 {
		t.Fatalf("Ell = %d, want 8", r.Ell())
	}
}

func TestRankAdaptiveGuardNearStreamEnd(t *testing.T) {
	// With rowsLeft hint, growth must not fire when fewer than ℓ+ν
	// rows remain.
	d := 20
	total := 2*6 + 3 // buffer fills once, then only 3 rows remain
	r := newRankAdaptive(6, d, 5, 1e-9, total, rng.New(40))
	g := rng.New(41)
	x := mat.RandGaussian(total, d, g)
	r.AppendMatrix(x)
	if r.Ell() != 6 {
		t.Fatalf("rank grew near stream end: Ell = %d", r.Ell())
	}
}

func TestRankAdaptiveBoundStillHolds(t *testing.T) {
	// Whatever the adaptation does, the FD guarantee for the *final* ℓ
	// must hold.
	g := rng.New(42)
	a := mat.RandGaussian(400, 30, g)
	r := newRankAdaptive(5, 30, 3, 0.05, 400, rng.New(43))
	r.AppendMatrix(a)
	b := r.Sketch()
	err := CovErr(a, b)
	bound := FDBound(a, 5) // bound for the *initial* ℓ is the weakest
	if err > bound*(1+1e-9) {
		t.Fatalf("rank-adaptive sketch violates FD bound: %v > %v", err, bound)
	}
}

func TestRankAdaptiveRingHoldsLastEllRows(t *testing.T) {
	// The probe reads the last ℓ appended rows, rounded to float32 and
	// oldest first, through every rotation and every growth of ℓ: each
	// time an append is about to probe, the sketch's float32 rows are
	// those rows, and the probe draws ℓ·ν normals and decides growth as
	// the estimate over them, widened, against the Vᵀ the rotation
	// computes decides.
	const n, d = 200, 30
	a := mat.RandGaussian(n, d, rng.New(46))
	r := newRankAdaptive(4, d, 3, 0.05, 0, rng.New(47))
	row := make([]float64, d)
	probes := 0
	for i := 0; i < n; i++ {
		fd := r.fd
		probing := fd.nextZero == 2*fd.ell && !r.increaseEll
		var grow bool
		var g *rng.RNG
		if probing {
			probes++
			_, last := fd.occupied()
			if len(last) != fd.ell {
				t.Fatalf("before row %d the probe would read %d rows at ℓ = %d", i, len(last), fd.ell)
			}
			x := mat.New(fd.ell, d)
			for j, got := range last {
				src := a.Row(i - fd.ell + j)
				for k, v := range src {
					if got[k] != float32(v) {
						t.Fatalf("before row %d probe row %d is not row %d rounded", i, j, i-fd.ell+j)
					}
					x.Set(j, k, float64(float32(v)))
				}
			}
			c := fd.Clone()
			c.decompose()
			g = rng.FromState(r.probe.State())
			grow = EstimateRelResidual(x, c.kept, r.cfg.Nu, g) > r.cfg.Eps
			c.Release()
		}
		copy(row, a.Row(i))
		r.Append(row)
		clear(row)
		if probing {
			if r.increaseEll != grow {
				t.Fatalf("row %d: the probe decided growth %v, the estimate over the last ℓ rows %v", i, r.increaseEll, grow)
			}
			if r.probe.State() != g.State() {
				t.Fatalf("row %d: the probe drew other normals than the estimate over the last ℓ rows", i)
			}
		}
	}
	if r.grows < 2 || probes <= r.grows {
		t.Fatalf("%d probes and %d growths; the rows a probe reads after a growth went untested", probes, r.grows)
	}
}

func TestRankAdaptiveSteadyAppendAllocatesNothing(t *testing.T) {
	// An Append that does not rotate stores its row in the sketch's
	// float32 block and keeps no copy of it beside: it allocates nothing.
	const ell, d = 8, 64
	a := mat.RandGaussian(4*ell, d, rng.New(48))
	r := newRankAdaptive(ell, d, 2, 10, 0, rng.New(49)) // ε above any relative error: ℓ stays
	i := 0
	next := func() {
		r.Append(a.Row(i % a.RowsN))
		i++
	}
	for r.fd.rotations == 0 || 2*r.fd.ell-r.fd.nextZero < ell/2 {
		next()
	}
	if got := testing.AllocsPerRun(2*r.fd.ell-r.fd.nextZero-1, next); got != 0 {
		t.Fatalf("a steady-state Append allocates %v times", got)
	}
	if r.Ell() != ell {
		t.Fatalf("Ell = %d, want %d", r.Ell(), ell)
	}
}

// liveHeap is the heap still reachable after collection. Two cycles:
// the kernels' pooled scratch sits in sync.Pools, whose victim caches
// survive one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestProbingRotationAllocatesUnderOneKeptBlock: the probe reads the
// sketch's float32 rows and the rotation's Vᵀ where they lie, and its
// estimator allocates its d-long vectors once per call. So at
// diff_sharded's width (d = 16384, ℓ = 25, ν = 10) a probing rotation
// allocates less than one ℓ×d float64 array beyond what the same
// rotation allocates where the stream-end guard skips the probe — each
// measured right after two collections, every pool and free list empty,
// so each piece of scratch is a fresh allocation, under -race as without
// it. (The rotation's own scratch is TestRotationAfterCollections…'s,
// and grows with the pool's width.) A probe that copied the basis and
// the rows, and drew its vectors per probe, took 9.2 MB; this one,
// measured, 0.27 MB.
func TestProbingRotationAllocatesUnderOneKeptBlock(t *testing.T) {
	const ell, d, nu = 25, 16384, 10
	x := goldenStream(2*ell+1, d, 30, 79)
	// A first sketch starts the kernel pool's workers.
	newRankAdaptive(ell, d, nu, 1e-9, 0, rng.New(1)).AppendMatrix(x)
	rotation := func(totalRows int) (*ARAMS, uint64) {
		r := newRankAdaptive(ell, d, nu, 1e-9, totalRows, rng.New(2))
		r.AppendMatrix(x.Rows(0, 2*ell))
		liveHeap()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Append(x.Row(2 * ell)) // the buffer is full: this append rotates
		runtime.ReadMemStats(&after)
		if r.fd.Rotations() != 1 {
			t.Fatalf("%d rotations, want 1", r.fd.Rotations())
		}
		return r, after.TotalAlloc - before.TotalAlloc
	}
	guarded, plain := rotation(2*ell + 1) // one row left: no probe
	probed, got := rotation(0)
	if guarded.probe.State() != rng.New(2).State() || probed.grows != 1 {
		t.Fatalf("the guarded rotation probed, or the unguarded one did not grow (%d growths)", probed.grows)
	}
	if extra, limit := int64(got)-int64(plain), int64(ell*d*8); extra >= limit {
		t.Errorf("a probing rotation after two collections allocates %d B, %d B more than one the guard keeps from probing; want under one ℓ×d float64 array, %d B",
			got, extra, limit)
	}
}

func TestRunRankAdaptiveFD(t *testing.T) {
	g := rng.New(44)
	x := mat.RandGaussian(100, 20, g)
	r := newRankAdaptive(5, x.ColsN, 3, 0.1, x.RowsN, rng.New(45))
	r.AppendMatrix(x)
	b := r.Sketch()
	if b.ColsN != 20 || b.RowsN < 5 {
		t.Fatalf("rank-adaptive sketch of the whole matrix is %d×%d", b.RowsN, b.ColsN)
	}
	if b.HasNaN() {
		t.Fatal("sketch has NaN")
	}
}

// TestRankAdaptivePanics: rank adaptation has no default ε, as it has
// for ν (NewARAMS's 10).
func TestRankAdaptivePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"eps=0": func() { newRankAdaptive(4, 10, 3, 0, 100, rng.New(1)) },
		"eps<0": func() { newRankAdaptive(4, 10, 0, -0.1, 100, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestARAMSEndToEnd(t *testing.T) {
	ds := synth.Generate(synth.Params{N: 500, D: 40, Rank: 10, Decay: synth.Exponential, Seed: 46})
	cfg := Config{Ell0: 6, Nu: 4, Eps: 0.05, Beta: 0.8, RankAdaptive: true, Seed: 47}
	b := Run(ds.A, cfg)
	if b.ColsN != 40 {
		t.Fatalf("ARAMS sketch width %d", b.ColsN)
	}
	if b.HasNaN() {
		t.Fatal("ARAMS sketch has NaN")
	}
	// The sketch basis should capture the dominant directions well.
	a := NewARAMS(cfg, 40, 500)
	a.ProcessBatch(ds.A)
	basis := a.Basis(a.Ell())
	if rel := RelProjErr(ds.A, basis); rel > 0.2 {
		t.Fatalf("ARAMS relative projection error %v", rel)
	}
}

func TestARAMSStreamingBatches(t *testing.T) {
	ds := synth.Generate(synth.Params{N: 400, D: 30, Rank: 8, Decay: synth.Exponential, Seed: 48})
	a := NewARAMS(Config{Ell0: 10, Beta: 0.9, Seed: 49}, 30, 400)
	for start := 0; start < 400; start += 50 {
		a.ProcessBatch(ds.A.Rows(start, start+50))
	}
	if a.FD().Seen() == 0 {
		t.Fatal("no rows reached the sketch")
	}
	basis := a.Basis(8)
	if rel := RelProjErr(ds.A, basis); rel > 0.2 {
		t.Fatalf("streaming ARAMS projection error %v", rel)
	}
}

func TestARAMSConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Ell0=0 did not panic")
		}
	}()
	NewARAMS(Config{Ell0: 0}, 10, 100)
}

func TestCovErrZeroMatrices(t *testing.T) {
	if got := CovErr(mat.New(5, 4), mat.New(2, 4)); got != 0 {
		t.Fatalf("CovErr of zeros = %v", got)
	}
}

func TestProjErrSqEmptyBasis(t *testing.T) {
	g := rng.New(50)
	x := mat.RandGaussian(6, 5, g)
	if got := ProjErrSq(x, mat.New(0, 5)); math.Abs(got-x.FrobeniusNormSq()) > 1e-12 {
		t.Fatalf("empty-basis ProjErrSq = %v", got)
	}
}

func TestProjErrSqFullBasis(t *testing.T) {
	g := rng.New(51)
	x := mat.RandGaussian(10, 6, g)
	_, _, vt := mat.SVD(x)
	if got := ProjErrSq(x, vt); got > 1e-9 {
		t.Fatalf("full-basis ProjErrSq = %v", got)
	}
}
