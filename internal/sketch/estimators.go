package sketch

import (
	"fmt"

	"arams/internal/mat"
	"arams/internal/rng"
)

// EstimatorKind names a randomized Frobenius-norm residual estimator.
// Rank adaptation runs the paper's one, the Gaussian
// random-matrix-multiplication estimator of Bujanovic & Kressner
// (EstimateResidualSq). The paper names stochastic trace estimation
// and improved small-sample estimators as future work; they are
// implemented here so the estimator ablation (A4) can compare all three.
type EstimatorKind int

const (
	// GaussianProbe is Algorithm 1 as written: average ‖Rᵀg‖² over
	// Gaussian probes g.
	GaussianProbe EstimatorKind = iota
	// Hutchinson replaces Gaussian probes with Rademacher (±1) probes —
	// the classic stochastic trace estimator, strictly lower variance
	// for the same probe count.
	Hutchinson
	// HutchPP is the Hutch++ estimator (Meyer, Musco, Musco & Woodruff
	// 2021): a third of the probes build a randomized range of the
	// residual operator whose trace is computed exactly; Hutchinson
	// handles only the remainder. Error decays like 1/ν instead of
	// 1/√ν.
	HutchPP
)

// String names the estimator for tables.
func (k EstimatorKind) String() string {
	switch k {
	case GaussianProbe:
		return "gaussian"
	case Hutchinson:
		return "hutchinson"
	case HutchPP:
		return "hutch++"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// EstimateResidualSqKind estimates ‖X − X·VᵀV‖_F² with the chosen
// estimator and nu matrix–vector probes. All estimators access X only
// through products, never forming the n×d residual or any d×d object.
func EstimateResidualSqKind(kind EstimatorKind, x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	if nu <= 0 {
		panic("sketch: estimator needs nu > 0")
	}
	if vt.RowsN > 0 && x.ColsN != vt.ColsN {
		panic("sketch: estimator dimension mismatch")
	}
	switch kind {
	case GaussianProbe:
		return EstimateResidualSq(x, vt, nu, g)
	case Hutchinson:
		return hutchinson(x, vt, nu, g)
	case HutchPP:
		return hutchPP(x, vt, nu, g)
	default:
		panic("sketch: unknown estimator kind")
	}
}

// residualTApply computes Rᵀv = Xᵀv − Vᵀ(V(Xᵀv)) for the residual
// R = X − X·VᵀV and a probe v of length n.
func residualTApply(x, vt *mat.Matrix, v []float64) []float64 {
	y := mat.MulTVec(x, v) // d-vector
	if vt.RowsN == 0 {
		return y
	}
	c := mat.MulVec(vt, y)  // k coefficients
	r := mat.MulTVec(vt, c) // projection
	for i := range y {
		y[i] -= r[i]
	}
	return y
}

// hutchinson estimates tr(RRᵀ) = ‖R‖_F² with Rademacher probes:
// E[‖Rᵀz‖²] = ‖R‖_F² for z with ±1 entries.
func hutchinson(x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	n := x.RowsN
	probe := make([]float64, n)
	var sum float64
	for k := 0; k < nu; k++ {
		for i := range probe {
			if g.Uint64()&1 == 0 {
				probe[i] = 1
			} else {
				probe[i] = -1
			}
		}
		sum += mat.Norm2Sq(residualTApply(x, vt, probe))
	}
	return sum / float64(nu)
}

// hutchPP estimates tr(A) for the PSD operator A = RRᵀ (n×n, applied
// implicitly through R): a randomized range Q captures A's dominant
// eigenspace and contributes its trace exactly; Hutchinson estimates
// the trace of the deflated remainder.
func hutchPP(x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	n := x.RowsN
	k := nu / 3
	if k < 1 {
		k = 1
	}
	m := nu - 2*k // Hutchinson probes for the remainder
	if m < 1 {
		m = 1
	}

	// applyA computes A·v = R(Rᵀv) for v of length n.
	applyA := func(v []float64) []float64 {
		rt := residualTApply(x, vt, v) // d-vector = Rᵀv
		// R·(rt) = X·rt − X·Vᵀ(V·rt); but R·w for w already in the
		// rowspace-complement simplifies to X·w − X·VᵀV·w. Since
		// rt = Rᵀv is already orthogonal to the basis rows, V·rt = 0
		// up to roundoff, so R·rt = X·rt.
		return mat.MulVec(x, rt)
	}

	// Sketch S = A·Ω with Rademacher Ω (n×k), orthonormalize.
	s := mat.New(n, k)
	probe := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range probe {
			if g.Uint64()&1 == 0 {
				probe[i] = 1
			} else {
				probe[i] = -1
			}
		}
		col := applyA(probe)
		for i := 0; i < n; i++ {
			s.Set(i, j, col[i])
		}
	}
	q, _ := mat.QR(s)

	// Exact part: tr(QᵀAQ) = Σ_j ‖Rᵀq_j‖².
	var exact float64
	qcol := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			qcol[i] = q.At(i, j)
		}
		exact += mat.Norm2Sq(residualTApply(x, vt, qcol))
	}

	// Remainder: Hutchinson on (I−QQᵀ)A(I−QQᵀ) — project probes off Q.
	var rem float64
	for t := 0; t < m; t++ {
		for i := range probe {
			if g.Uint64()&1 == 0 {
				probe[i] = 1
			} else {
				probe[i] = -1
			}
		}
		deflate(probe, q)
		rem += mat.Norm2Sq(residualTApply(x, vt, probe))
	}
	return exact + rem/float64(m)
}

// deflate projects v off the orthonormal columns of q in place:
// v ← (I − QQᵀ)v.
func deflate(v []float64, q *mat.Matrix) {
	n, k := q.Dims()
	for j := 0; j < k; j++ {
		var dot float64
		for i := 0; i < n; i++ {
			dot += q.At(i, j) * v[i]
		}
		for i := 0; i < n; i++ {
			v[i] -= dot * q.At(i, j)
		}
	}
}
