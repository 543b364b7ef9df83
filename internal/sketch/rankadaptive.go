package sketch

import (
	"fmt"

	"arams/internal/mat"
	"arams/internal/obs"
	"arams/internal/rng"
)

// obsRankAdapts counts heuristic-triggered rank increases (Alg. 2
// line 9: estimated error above ε), as opposed to merge-driven Grow
// calls, which only arams_sketch_rank_grow_events_total sees.
var obsRankAdapts = obs.Default().Counter("arams_sketch_rank_adaptations_total")

// RankAdaptiveFD implements Algorithm 2 of the paper: a Frequent
// Directions sketch whose number of retained directions ℓ grows
// adaptively so that the estimated relative reconstruction error of the
// most recent data stays below a user-specified threshold ε — the
// practitioner specifies a target error instead of a rank.
//
// After each rotation, the probe heuristic (Algorithm 1) estimates the
// reconstruction error of the last ℓ processed rows against the sketch
// basis, reusing the right singular vectors the rotation just computed,
// so the heuristic adds no extra SVD. If the error exceeds ε and enough
// rows remain in the stream (rowsLeft > ℓ+ν, the paper's canRankAdapt
// guard, which prevents growing right before the data runs out and
// leaving zero rows in the sketch), ℓ increases by ν at the start of
// the next cycle.
type RankAdaptiveFD struct {
	fd  *FrequentDirections
	nu  int     // probe count and rank increment (paper uses ν for both)
	eps float64 // relative reconstruction-error threshold
	g   *rng.RNG

	// recent is a ring of the last ℓ appended rows, oldest first,
	// consulted by the heuristic. Stored as row copies to stay
	// independent of callers' buffers; State copies them out, so no
	// caller holds their storage.
	recent [][]float64

	increaseEll bool
	rowsLeft    int // optional stream-length hint; -1 if unknown
	grows       int // number of rank increases performed
}

// NewRankAdaptiveFD creates a rank-adaptive sketch starting at ell0
// directions over d features, targeting relative error eps, with nu
// Gaussian probes per estimate (nu is also the rank increment, as in
// the paper). totalRows is the expected stream length used by the
// canRankAdapt guard; pass <= 0 when the stream length is unknown, in
// which case the guard always allows growth.
func NewRankAdaptiveFD(ell0, d, nu int, eps float64, totalRows int, g *rng.RNG) *RankAdaptiveFD {
	if nu <= 0 {
		panic(fmt.Sprintf("sketch: nu must be positive, got %d", nu))
	}
	if eps <= 0 {
		panic(fmt.Sprintf("sketch: eps must be positive, got %v", eps))
	}
	if totalRows <= 0 {
		totalRows = -1
	}
	r := &RankAdaptiveFD{
		fd:       NewFrequentDirections(ell0, d, Options{}),
		nu:       nu,
		eps:      eps,
		g:        g,
		rowsLeft: totalRows,
	}
	return r
}

// Ell returns the current number of retained directions.
func (r *RankAdaptiveFD) Ell() int { return r.fd.Ell() }

// FD exposes the underlying sketch (for merge and basis extraction).
func (r *RankAdaptiveFD) FD() *FrequentDirections { return r.fd }

// Sketch returns the current sketch matrix.
func (r *RankAdaptiveFD) Sketch() *mat.Matrix { return r.fd.Sketch() }

// Basis returns the top-k right singular vectors of the sketch.
func (r *RankAdaptiveFD) Basis(k int) *mat.Matrix { return r.fd.Basis(k) }

// Append adds one row to the sketch, applying the rank-adaptation
// bookkeeping of Algorithm 2 around the underlying fast-FD buffer.
func (r *RankAdaptiveFD) Append(row []float64) {
	r.appendNorm(row, mat.Norm2Sq(row))
}

// appendNorm is Append for a caller that already holds
// n2 = mat.Norm2Sq(row).
func (r *RankAdaptiveFD) appendNorm(row []float64, n2 float64) {
	fd := r.fd
	if fd.nextZero == 2*fd.ell {
		canAdapt := r.canRankAdapt()
		if r.increaseEll && canAdapt {
			// Grow ℓ by ν; the buffer gains 2ν rows so this append
			// proceeds without a rotation, exactly line 10–12 of Alg. 2.
			fd.Grow(r.nu)
			r.increaseEll = false
		} else if !canAdapt {
			fd.rotate()
		} else {
			// Estimate the reconstruction error of the most recent ℓ
			// rows using the Vᵀ this rotation computes (no extra SVD),
			// copied out of kept before the shrink scales it.
			sigma := fd.decompose()
			basis := fd.kept.Clone()
			fd.shrink(sigma)
			x := r.recentMatrix()
			if x.RowsN > 0 && EstimateRelResidual(x, basis, r.nu, r.g) > r.eps {
				r.increaseEll = true
				r.grows++
				obsRankAdapts.Inc()
			}
		}
	}
	fd.store(row, n2)
	r.push(row)
	if r.rowsLeft > 0 {
		r.rowsLeft--
	}
}

// canRankAdapt mirrors line 8 of Algorithm 2: growth is permitted only
// when more than ℓ+ν rows remain, so the enlarged buffer can still be
// filled before the stream ends.
func (r *RankAdaptiveFD) canRankAdapt() bool {
	if r.rowsLeft < 0 {
		return true
	}
	return r.rowsLeft > r.fd.Ell()+r.nu
}

// push records a row in the recent-rows ring (capacity ℓ, which only
// grows). Once the ring is full the row is copied into the storage of
// the row it evicts, so a steady stream allocates nothing here.
func (r *RankAdaptiveFD) push(row []float64) {
	if len(r.recent) < r.fd.Ell() {
		r.recent = append(r.recent, append([]float64(nil), row...))
		return
	}
	oldest := r.recent[0]
	copy(r.recent, r.recent[1:])
	copy(oldest, row)
	r.recent[len(r.recent)-1] = oldest
}

// recentMatrix snapshots the recent-rows ring as a matrix.
func (r *RankAdaptiveFD) recentMatrix() *mat.Matrix {
	if len(r.recent) == 0 {
		return mat.New(0, r.fd.d)
	}
	return mat.FromRows(r.recent)
}
