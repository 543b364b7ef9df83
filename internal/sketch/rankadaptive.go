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
// At each rotation, the probe heuristic (Algorithm 1) estimates the
// reconstruction error of the last ℓ appended rows against the right
// singular vectors the rotation has just computed, so the heuristic
// adds no extra SVD. It reads both where they lie: the rows are the
// sketch's own float32 rows, exactly the ℓ appended since the last
// rotation (fast FD's 2ℓ buffer holds them as its lower half), and the
// vectors are the kept block, which holds them unscaled until the
// shrink. No copy of either is made. If the error exceeds ε and enough
// rows remain in the stream (rowsLeft > ℓ+ν, the paper's canRankAdapt
// guard, which prevents growing right before the data runs out and
// leaving zero rows in the sketch), ℓ increases by ν at the start of
// the next cycle.
type RankAdaptiveFD struct {
	fd  *FrequentDirections
	nu  int     // probe count and rank increment (paper uses ν for both)
	eps float64 // relative reconstruction-error threshold
	g   *rng.RNG

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
	r.appendNorm(row, nil, mat.Norm2Sq(row))
}

// appendNorm is Append for a caller that already holds
// n2 = mat.Norm2Sq(row); row32, when not nil, is row rounded to float32,
// which the sketch borrows until its next rotation.
func (r *RankAdaptiveFD) appendNorm(row []float64, row32 []float32, n2 float64) {
	fd := r.fd
	if row32 != nil {
		fd.lend(row32)
	}
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
			// Between the two halves of the rotation, kept holds the
			// unscaled Vᵀ and the float32 rows are the last ℓ appended,
			// oldest first: Alg. 2's test, read where it lies.
			sigma := fd.decompose()
			_, last := fd.occupied()
			if relResidual(mat.New(0, fd.d), last, fd.kept, r.nu, r.g) > r.eps {
				r.increaseEll = true
				r.grows++
				obsRankAdapts.Inc()
			}
			fd.shrink(sigma)
		}
	}
	fd.store(row, row32, n2)
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
