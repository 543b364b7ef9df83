package sketch

import (
	"arams/internal/mat"
	"arams/internal/rng"
)

// Run executes Algorithm 3 on a full matrix: select the β·n
// highest-priority rows with a priority queue, then sketch them with
// rank-adaptive Frequent Directions.
func Run(x *mat.Matrix, cfg Config) *mat.Matrix {
	a := NewARAMS(cfg, x.ColsN, x.RowsN)
	a.ProcessBatch(x)
	return a.Sketch()
}

// newRankAdaptive is a rank-adaptive ARAMS over d features that starts
// at ell0 directions, targets relative error eps with nu probes, expects
// totalRows rows (<= 0 if unknown) and draws its probes from g. Fed by
// Append, which skips the sampler, it is Algorithm 2 alone.
func newRankAdaptive(ell0, d, nu int, eps float64, totalRows int, g *rng.RNG) *ARAMS {
	a := NewARAMS(Config{Ell0: ell0, Nu: nu, Eps: eps, RankAdaptive: true}, d, totalRows)
	a.probe = g
	return a
}

// Append adds one row to the sketch, past the sampler.
func (a *ARAMS) Append(row []float64) { a.appendNorm(row, nil, mat.Norm2Sq(row)) }

// AppendMatrix adds every row of x, past the sampler.
func (a *ARAMS) AppendMatrix(x *mat.Matrix) {
	for i := 0; i < x.RowsN; i++ {
		a.Append(x.Row(i))
	}
}

// sampleBatch offers every row of x to a fresh sampler (see
// PrioritySampler.sample) and returns it.
func sampleBatch(x *mat.Matrix, beta float64, g *rng.RNG, norms2 []float64) *PrioritySampler {
	ps := NewPrioritySampler(1, g)
	ps.sample(x, beta, norms2)
	return ps
}

// EstimateRelResidual is the rank-adaptive probe's estimate of the
// relative reconstruction error (relResidual) for a float64 batch x.
func EstimateRelResidual(x, vt *mat.Matrix, nu int, g *rng.RNG) float64 {
	return relResidual(x, nil, vt, nu, g)
}
