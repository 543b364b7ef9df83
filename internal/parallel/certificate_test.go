package parallel

import (
	"math"
	"testing"
	"testing/quick"

	"arams/internal/mat"
	"arams/internal/sketch"
)

// certTolerance is the headroom allowed between the exact spectral
// norm (power iteration) and the certified bound, scaled by the stream
// energy.
func certTolerance(frobMass float64) float64 { return 1e-8 * (1 + frobMass) }

// checkRunCertificate asserts the certificate invariants of one run
// against the exact ground truth: the certified covariance bound holds
// for the true error, the stream energy is accounted exactly, and the
// per-phase shrinkage attribution reconciles with the certificate.
func checkRunCertificate(t *testing.T, x *mat.Matrix, global *sketch.FrequentDirections, stats Stats, label string) bool {
	t.Helper()
	cert := stats.Certificate
	tol := certTolerance(cert.FrobMass)
	exact := sketch.CovErr(x, global.Sketch())
	if exact > cert.CovBound()+tol {
		t.Logf("%s: exact error %v exceeds certified bound %v", label, exact, cert.CovBound())
		return false
	}
	wantMass := x.FrobeniusNormSq()
	if math.Abs(cert.FrobMass-wantMass) > 1e-9*(1+wantMass) {
		t.Logf("%s: certificate FrobMass %v, want ‖A‖_F² %v", label, cert.FrobMass, wantMass)
		return false
	}
	if cert.Rows != x.RowsN {
		t.Logf("%s: certificate rows %d, want %d", label, cert.Rows, x.RowsN)
		return false
	}
	if math.Abs(stats.LocalShrinkMass+stats.MergeShrinkMass-cert.ShrinkMass) > tol {
		t.Logf("%s: shrinkage attribution %v + %v != certificate %v",
			label, stats.LocalShrinkMass, stats.MergeShrinkMass, cert.ShrinkMass)
		return false
	}
	return true
}

// TestQuickCertificateBound is the certificate form of the
// mergeability property: for random data, random shard splits, random
// merge orders, and every tree arity the harness generates, the exact
// ‖AᵀA − BᵀB‖₂ of the merged sketch must not exceed the run's reported
// Certificate.CovBound(), the certified stream energy must equal
// ‖A‖_F² (no sampling anywhere in this path), and the per-round
// shrinkage accounting must telescope to the certificate.
func TestQuickCertificateBound(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	property := func(seed uint64, nRaw, dRaw, ellRaw, pRaw, arityRaw uint8) bool {
		pp := paramsFrom(seed, nRaw, dRaw, ellRaw, pRaw, arityRaw)
		x := mat.RandGaussian(pp.n, pp.d, pp.g)
		shards := randomShardSplit(x, pp.p, pp.g)
		perm := pp.g.Perm(len(shards))
		shuffled := make([]*mat.Matrix, len(shards))
		for i, j := range perm {
			shuffled[i] = shards[j]
		}
		mk := FDSketcher(pp.ell, sketch.Options{})

		gTree, sTree := Run(shuffled, mk, TreeMerge, WithArity(pp.arity))
		if !checkRunCertificate(t, x, gTree, sTree, "tree") {
			return false
		}
		// The round ledger must reproduce the merge-phase shrinkage.
		var roundShrink float64
		for _, rs := range sTree.Rounds {
			roundShrink += rs.ShrinkMass
		}
		if math.Abs(roundShrink-sTree.MergeShrinkMass) > certTolerance(sTree.Certificate.FrobMass) {
			t.Logf("round shrinkage ledger %v != merge shrinkage %v (arity=%d p=%d)",
				roundShrink, sTree.MergeShrinkMass, pp.arity, pp.p)
			return false
		}

		gSerial, sSerial := Run(shuffled, mk, SerialMerge)
		return checkRunCertificate(t, x, gSerial, sSerial, "serial")
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
