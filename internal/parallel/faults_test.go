package parallel

import (
	"testing"
	"time"

	"arams/internal/mat"
	"arams/internal/sketch"
)

// fdBound returns the Frequent Directions covariance-error bound
// ‖A‖_F²/ℓ with a small slack for floating-point roundoff.
func fdBound(x *mat.Matrix, ell int) float64 {
	return x.FrobeniusNormSq() / float64(ell) * (1 + 1e-8)
}

// TestFaultInjectedBoundHolds is the acceptance criterion: with fail
// probability up to 0.3 per merge leg (plus corruption and delays),
// Run must still return a sketch satisfying the FD covariance bound,
// and the retry/recovery counters must account for the chaos.
func TestFaultInjectedBoundHolds(t *testing.T) {
	const ell = 8
	x := testMatrix(256, 12, 42)
	mk := FDSketcher(ell, sketch.Options{})
	for _, fail := range []float64{0.1, 0.3} {
		for seed := uint64(1); seed <= 4; seed++ {
			shards := SplitRows(x, 8)
			global, stats := Run(shards, mk, TreeMerge,
				WithFaults(Faults{FailProb: fail, CorruptProb: 0.2, DelayProb: 0.1, Delay: 100 * time.Microsecond, Seed: seed}),
				WithRetry(Retry{MaxAttempts: 2, Backoff: 50 * time.Microsecond}))
			if global.Seen() != x.RowsN {
				t.Fatalf("fail=%v seed=%d: Seen=%d, want %d", fail, seed, global.Seen(), x.RowsN)
			}
			if err, bound := sketch.CovErr(x, global.Sketch()), fdBound(x, ell); err > bound {
				t.Errorf("fail=%v seed=%d: CovErr %v > bound %v", fail, seed, err, bound)
			}
			if global.Sketch().HasNaN() {
				t.Errorf("fail=%v seed=%d: sketch has NaN", fail, seed)
			}
			if stats.LegFailures > 0 && stats.LegRetries == 0 && stats.Resketches == 0 {
				t.Errorf("fail=%v seed=%d: failures %d with no retries or recoveries", fail, seed, stats.LegFailures)
			}
		}
	}
}

// TestFaultInjectionDeterministic runs the same faulty configuration
// twice and requires identical sketches and identical fault
// accounting: the injected pattern is a function of the seed and the
// tree position, never of goroutine scheduling.
func TestFaultInjectionDeterministic(t *testing.T) {
	x := testMatrix(200, 10, 7)
	mk := FDSketcher(6, sketch.Options{})
	opts := []Option{
		WithFaults(Faults{FailProb: 0.4, CorruptProb: 0.3, Seed: 9}),
		WithRetry(Retry{MaxAttempts: 2, Backoff: 10 * time.Microsecond}),
	}
	g1, s1 := Run(SplitRows(x, 8), mk, TreeMerge, opts...)
	g2, s2 := Run(SplitRows(x, 8), mk, TreeMerge, opts...)
	b1, b2 := g1.Sketch(), g2.Sketch()
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatalf("sketches diverged at element %d", i)
		}
	}
	if s1.LegFailures != s2.LegFailures || s1.LegRetries != s2.LegRetries ||
		s1.Resketches != s2.Resketches || s1.SerialFallback != s2.SerialFallback {
		t.Fatalf("fault accounting diverged: %+v vs %+v",
			[4]int{s1.LegFailures, s1.LegRetries, s1.Resketches}, [4]int{s2.LegFailures, s2.LegRetries, s2.Resketches})
	}
}

// TestGuardedPathMatchesFastPath checks that turning on the guarded
// (clone-validate) leg machinery with zero fault probability changes
// nothing: the sketch must equal the plain tree merge's bit for bit.
func TestGuardedPathMatchesFastPath(t *testing.T) {
	x := testMatrix(180, 9, 13)
	mk := FDSketcher(5, sketch.Options{})
	plain, _ := Run(SplitRows(x, 6), mk, TreeMerge)
	guarded, stats := Run(SplitRows(x, 6), mk, TreeMerge, WithFaults(Faults{Seed: 1}))
	a, b := plain.Sketch(), guarded.Sketch()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("guarded path diverged at element %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
	if stats.LegFailures != 0 || stats.LegRetries != 0 || stats.Resketches != 0 {
		t.Fatalf("zero-probability faults still failed legs: %+v", stats)
	}
}

// TestAlwaysFailDegradesToSerial forces every leg to exhaust its
// retries: every leg must be recovered by re-sketching, the run must
// drop to the serial fold, and the result must still satisfy the
// covariance bound (graceful degradation, not collapse).
func TestAlwaysFailDegradesToSerial(t *testing.T) {
	const ell = 6
	x := testMatrix(240, 10, 3)
	mk := FDSketcher(ell, sketch.Options{})
	global, stats := Run(SplitRows(x, 8), mk, TreeMerge,
		WithFaults(Faults{FailProb: 1, Seed: 5}),
		WithRetry(Retry{MaxAttempts: 2, Backoff: 10 * time.Microsecond, MaxFailedLegs: 1}))
	if !stats.SerialFallback {
		t.Fatalf("always-failing legs did not trigger serial fallback: %+v", stats)
	}
	if stats.Resketches < 2 {
		t.Fatalf("expected ≥2 recovered legs before fallback, got %d", stats.Resketches)
	}
	if global.Seen() != x.RowsN {
		t.Fatalf("Seen=%d, want %d", global.Seen(), x.RowsN)
	}
	if err, bound := sketch.CovErr(x, global.Sketch()), fdBound(x, ell); err > bound {
		t.Errorf("degraded run: CovErr %v > bound %v", err, bound)
	}
}

// TestLegTimeoutTriggersRetry injects a delay longer than the leg
// timeout: the first attempt must time out, and the retry (whose
// delay draw differs) or the recovery path must still complete the
// merge correctly.
func TestLegTimeoutTriggersRetry(t *testing.T) {
	const ell = 5
	x := testMatrix(160, 8, 17)
	mk := FDSketcher(ell, sketch.Options{})
	global, stats := Run(SplitRows(x, 4), mk, TreeMerge,
		WithFaults(Faults{DelayProb: 1, Delay: 50 * time.Millisecond, Seed: 2}),
		WithRetry(Retry{MaxAttempts: 2, Backoff: 10 * time.Microsecond, LegTimeout: 5 * time.Millisecond}))
	if stats.LegFailures == 0 {
		t.Fatalf("50ms delays under a 5ms timeout produced no failures: %+v", stats)
	}
	if err, bound := sketch.CovErr(x, global.Sketch()), fdBound(x, ell); err > bound {
		t.Errorf("timeout run: CovErr %v > bound %v", err, bound)
	}
	if global.Seen() != x.RowsN {
		t.Fatalf("Seen=%d, want %d", global.Seen(), x.RowsN)
	}
}

// TestRoundStatsAccounting checks the per-round leg bookkeeping on a
// clean run: every tree level must report its leg count and a non-zero
// slowest-leg duration, and the aggregates must match.
func TestRoundStatsAccounting(t *testing.T) {
	x := testMatrix(256, 8, 23)
	mk := FDSketcher(6, sketch.Options{})
	_, stats := Run(SplitRows(x, 8), mk, TreeMerge)
	if len(stats.Rounds) != stats.MergeRounds {
		t.Fatalf("Rounds has %d entries, MergeRounds=%d", len(stats.Rounds), stats.MergeRounds)
	}
	wantLegs := []int{4, 2, 1} // 8 → 4 → 2 → 1 with arity 2
	for i, rs := range stats.Rounds {
		if rs.Legs != wantLegs[i] {
			t.Errorf("round %d: %d legs, want %d", i, rs.Legs, wantLegs[i])
		}
		if rs.Failures != 0 || rs.Retries != 0 || rs.Resketches != 0 {
			t.Errorf("round %d: clean run reported faults %+v", i, rs)
		}
		if rs.Slowest <= 0 {
			t.Errorf("round %d: slowest leg took %v, want > 0", i, rs.Slowest)
		}
	}
	if stats.SerialFallback {
		t.Error("clean run reported a serial fallback")
	}
}
