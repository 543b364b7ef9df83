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

// AppendMatrix adds every row of x.
func (r *RankAdaptiveFD) AppendMatrix(x *mat.Matrix) {
	for i := 0; i < x.RowsN; i++ {
		r.Append(x.Row(i))
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
