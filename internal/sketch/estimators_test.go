package sketch

import (
	"math"
	"testing"

	"arams/internal/mat"
	"arams/internal/rng"
	"arams/internal/synth"
)

// estimatorFixture builds a test matrix and a truncated basis with a
// known exact residual.
func estimatorFixture(seed uint64) (x, vt *mat.Matrix, exact float64) {
	g := rng.New(seed)
	x = mat.RandGaussian(60, 40, g)
	_, _, vtFull := mat.SVD(x)
	vt = mat.New(8, 40)
	for i := 0; i < 8; i++ {
		copy(vt.Row(i), vtFull.Row(i))
	}
	return x, vt, ProjErrSq(x, vt)
}

func TestEstimatorKindsUnbiased(t *testing.T) {
	x, vt, exact := estimatorFixture(1)
	for _, kind := range []EstimatorKind{GaussianProbe, Hutchinson, HutchPP} {
		const trials = 200
		var sum float64
		for i := 0; i < trials; i++ {
			sum += EstimateResidualSqKind(kind, x, vt, 9, rng.NewStream(uint64(i), uint64(kind)+3))
		}
		mean := sum / trials
		if rel := math.Abs(mean-exact) / exact; rel > 0.1 {
			t.Errorf("%v: mean %v vs exact %v (rel %v)", kind, mean, exact, rel)
		}
	}
}

func TestEstimatorVarianceOrdering(t *testing.T) {
	// On a residual with decaying spectrum (the regime Hutch++ is built
	// for, and the regime beam-profile batches live in), the mean
	// absolute deviation must order Hutch++ ≤ Hutchinson ≤ Gaussian for
	// the same probe budget (with slack for sampling noise).
	ds := synth.Generate(synth.Params{N: 60, D: 40, Rank: 30, Decay: synth.Exponential, Seed: 2})
	x := ds.A
	vfull := ds.V.T()
	vt := mat.New(5, 40)
	for i := 0; i < 5; i++ {
		copy(vt.Row(i), vfull.Row(i))
	}
	exact := ProjErrSq(x, vt)
	dev := func(kind EstimatorKind) float64 {
		const trials = 150
		var s float64
		for i := 0; i < trials; i++ {
			est := EstimateResidualSqKind(kind, x, vt, 12, rng.NewStream(uint64(i), uint64(kind)+11))
			s += math.Abs(est-exact) / exact
		}
		return s / trials
	}
	dg, dh, dpp := dev(GaussianProbe), dev(Hutchinson), dev(HutchPP)
	if dh > dg*1.25 {
		t.Errorf("Hutchinson deviation %v not ≤ Gaussian %v", dh, dg)
	}
	if dpp > dh*1.25 {
		t.Errorf("Hutch++ deviation %v not ≤ Hutchinson %v", dpp, dh)
	}
}

func TestHutchPPExactOnLowRankResidual(t *testing.T) {
	// When the residual operator has rank ≤ ν/3, Hutch++'s range
	// captures it entirely and the estimate is exact (up to roundoff).
	ds := synth.Generate(synth.Params{N: 40, D: 30, Rank: 10, Decay: synth.Exponential, Seed: 3})
	// Basis = top-7 true directions → residual has rank 3.
	vt := mat.New(7, 30)
	vfull := ds.V.T()
	for i := 0; i < 7; i++ {
		copy(vt.Row(i), vfull.Row(i))
	}
	exact := ProjErrSq(ds.A, vt)
	for trial := 0; trial < 10; trial++ {
		est := EstimateResidualSqKind(HutchPP, ds.A, vt, 12, rng.NewStream(uint64(trial), 5))
		if rel := math.Abs(est-exact) / exact; rel > 1e-6 {
			t.Fatalf("trial %d: Hutch++ not exact on rank-3 residual: est %v vs %v", trial, est, exact)
		}
	}
}

func TestEstimatorKindString(t *testing.T) {
	if GaussianProbe.String() != "gaussian" || Hutchinson.String() != "hutchinson" ||
		HutchPP.String() != "hutch++" {
		t.Fatal("estimator names wrong")
	}
	if EstimatorKind(9).String() == "" {
		t.Fatal("unknown estimator name empty")
	}
}

func TestEstimatorZeroBatch(t *testing.T) {
	for _, kind := range []EstimatorKind{GaussianProbe, Hutchinson, HutchPP} {
		got := EstimateResidualSqKind(kind, mat.New(5, 4), mat.New(0, 4), 3, rng.New(1))
		if got != 0 {
			t.Errorf("%v: zero batch gives %v", kind, got)
		}
	}
}

func TestEstimatorEmptyBasisKinds(t *testing.T) {
	g := rng.New(4)
	x := mat.RandGaussian(15, 10, g)
	want := x.FrobeniusNormSq()
	for _, kind := range []EstimatorKind{Hutchinson, HutchPP} {
		const trials = 200
		var sum float64
		for i := 0; i < trials; i++ {
			sum += EstimateResidualSqKind(kind, x, mat.New(0, 10), 6, rng.NewStream(uint64(i), 7))
		}
		mean := sum / trials
		if math.Abs(mean-want)/want > 0.15 {
			t.Errorf("%v: empty-basis mean %v vs ‖X‖² %v", kind, mean, want)
		}
	}
}

// TestRankAdaptiveWithAlternativeEstimators: rank adaptation runs one
// estimator, Alg. 1's Gaussian probes; Hutchinson and Hutch++ stay for
// the A4 ablation. On a stream the adaptation grows on, each of them,
// handed the leading half of the final basis, must read the residual
// it leaves to within a factor of two of the exact one.
func TestRankAdaptiveWithAlternativeEstimators(t *testing.T) {
	ds := synth.Generate(synth.Params{N: 500, D: 40, Rank: 12, Decay: synth.SubExponential, Seed: 5})
	r := newRankAdaptive(4, 40, 4, 0.02, 500, rng.New(6))
	r.AppendMatrix(ds.A)
	if r.grows == 0 {
		t.Fatal("rank never grew")
	}
	if rel := RelProjErr(ds.A, r.Basis(r.Ell())); rel > 0.1 {
		t.Fatalf("final error %v", rel)
	}
	basis := r.Basis(r.Ell() / 2)
	exact := RelProjErr(ds.A, basis)
	for _, kind := range []EstimatorKind{Hutchinson, HutchPP} {
		if est := EstimateResidualSqKind(kind, ds.A, basis, 24, rng.New(7)) / ds.A.FrobeniusNormSq(); est < exact/2 || est > 2*exact {
			t.Errorf("%v: estimate %v of the final residual, exact %v", kind, est, exact)
		}
	}
}

// TestARAMSEstimatorConfig: the ARAMS configuration picks no estimator.
// Rank adaptation runs relResidual, which over a float64 batch
// (EstimateRelResidual) returns the bits of the Gaussian-probe arm of
// EstimateResidualSqKind over ‖X‖_F² for the same probe stream, and a
// rank-adaptive run yields a finite sketch.
func TestARAMSEstimatorConfig(t *testing.T) {
	ds := synth.Generate(synth.Params{N: 300, D: 30, Rank: 10, Decay: synth.Exponential, Seed: 7})
	for seed := uint64(1); seed <= 5; seed++ {
		vt := ds.V.T().Rows(0, int(seed))
		got := EstimateRelResidual(ds.A, vt, 4, rng.New(seed))
		want := EstimateResidualSqKind(GaussianProbe, ds.A, vt, 4, rng.New(seed)) / ds.A.FrobeniusNormSq()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("basis of %d rows: EstimateRelResidual %v, Gaussian-probe arm %v", seed, got, want)
		}
	}
	b := Run(ds.A, Config{Ell0: 5, Nu: 4, Eps: 0.05, RankAdaptive: true, Seed: 8})
	if b.HasNaN() || b.ColsN != 30 {
		t.Fatal("rank-adaptive ARAMS sketch broken")
	}
}

func TestEstimatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nu=0 did not panic")
		}
	}()
	EstimateResidualSqKind(Hutchinson, mat.New(3, 3), mat.New(0, 3), 0, rng.New(1))
}
