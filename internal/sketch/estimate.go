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
	if nu <= 0 {
		panic("sketch: EstimateResidualSq needs nu > 0")
	}
	if vt.RowsN > 0 && x.ColsN != vt.ColsN {
		panic("sketch: EstimateResidualSq dimension mismatch")
	}
	n := x.RowsN
	var sum float64
	probe := make([]float64, n)
	for k := 0; k < nu; k++ {
		for i := range probe {
			probe[i] = g.Norm()
		}
		y := mat.MulTVec(x, probe) // d-vector
		var resid float64
		if vt.RowsN == 0 {
			resid = mat.Norm2Sq(y)
		} else {
			c := mat.MulVec(vt, y)  // k-vector of coefficients
			r := mat.MulTVec(vt, c) // reconstruction VᵀVy
			for i := range y {      // ‖y − r‖²
				dlt := y[i] - r[i]
				resid += dlt * dlt
			}
		}
		sum += resid
	}
	return sum / float64(nu)
}

// EstimateRelResidual returns the probe-based estimate of the relative
// reconstruction error ‖X − X·VᵀV‖_F² / ‖X‖_F² of the batch. The exact
// denominator costs one pass over the batch, which is negligible next
// to the probes. Returns 0 for an all-zero batch.
func EstimateRelResidual(x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	den := x.FrobeniusNormSq()
	if den == 0 {
		return 0
	}
	return EstimateResidualSq(x, vt, nu, g) / den
}
