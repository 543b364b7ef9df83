package sketch

import (
	"arams/internal/mat"
	"arams/internal/rng"
)

// EstimateResidualSq implements Algorithm 1 of the paper: a low-memory
// randomized estimate of the squared reconstruction error
// ‖X − X·VᵀV‖_F² for a batch X (rows are samples) against a basis vt
// (k×d, orthonormal rows), using nu Gaussian probe vectors.
//
// Each probe draws g ~ N(0, I_n), forms y = Xᵀg (a random mixture of
// the batch's samples), projects it onto the basis, and accumulates the
// squared residual ‖y − VᵀVy‖². Because E[‖Mg‖²] = ‖M‖_F² for Gaussian
// g, the average over probes is an unbiased estimator of the true
// squared Frobenius residual — the random-matrix-multiplication
// Frobenius estimator of Bujanovic & Kressner that the paper adopts.
// Nothing of size d×d is ever formed.
func EstimateResidualSq(x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	return residualSq(x, nil, vt, nu, g)
}

// residualSq is EstimateResidualSq of the batch whose rows are top's and
// then low's, widened (mat.MulTVecSplitTo): its bits are those of the
// float64 batch the rows widen to. Its d-long vectors are allocated once
// per call, not once per probe.
func residualSq(top *mat.Matrix, low [][]float32, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	if nu <= 0 {
		panic("sketch: EstimateResidualSq needs nu > 0")
	}
	if vt.RowsN > 0 && top.ColsN != vt.ColsN {
		panic("sketch: EstimateResidualSq dimension mismatch")
	}
	probe := make([]float64, top.RowsN+len(low))
	y := make([]float64, top.ColsN)
	r := make([]float64, top.ColsN) // a float32 row widened, then the reconstruction VᵀVy
	c := make([]float64, vt.RowsN)
	var sum float64
	for k := 0; k < nu; k++ {
		for i := range probe {
			probe[i] = g.Norm()
		}
		mat.MulTVecSplitTo(y, top, low, probe, r) // y = Xᵀg
		if vt.RowsN == 0 {
			sum += mat.Norm2Sq(y)
			continue
		}
		for j := range c { // coefficients Vy
			c[j] = mat.Dot(vt.Row(j), y)
		}
		mat.MulTVecSplitTo(r, vt, nil, c, nil)
		var resid float64
		for i := range y { // ‖y − r‖²
			dlt := y[i] - r[i]
			resid += dlt * dlt
		}
		sum += resid
	}
	return sum / float64(nu)
}

// relResidual is the probe-based estimate of the relative
// reconstruction error ‖X − X·VᵀV‖_F² / ‖X‖_F² of the batch [top; low],
// widened as residualSq reads it: the quantity Alg. 2 holds against ε.
// The exact denominator costs one pass over the batch, which is
// negligible next to the probes. Returns 0 for an all-zero batch.
func relResidual(top *mat.Matrix, low [][]float32, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	den := top.FrobeniusNormSq()
	for _, row := range low {
		for _, v := range row {
			w := float64(v)
			den += w * w
		}
	}
	if den == 0 {
		return 0
	}
	return residualSq(top, low, vt, nu, g) / den
}
