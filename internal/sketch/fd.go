// Package sketch implements the paper's matrix-sketching algorithms:
// Frequent Directions (Ghashami et al. 2016) in its fast 2ℓ-buffer
// form, the Rank-Adaptive Frequent Directions variant (Algorithm 2),
// the probe-based reconstruction-error heuristic (Algorithm 1),
// priority sampling (Duffield et al. 2007), and the combined ARAMS
// algorithm (Algorithm 3). Sketches are mergeable summaries, which is
// the property the tree-merge parallelization in package parallel
// relies on.
//
// Data orientation follows the Go convention used throughout this
// repository: rows are samples, columns are features, so a sketch of an
// n×d stream is an ℓ×d matrix B with ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ.
package sketch

import (
	"fmt"
	"math"

	"arams/internal/mat"
	"arams/internal/obs"
)

// Sketch-health observability. Rotations happen once every ℓ appended
// rows (never per row), so the atomic adds below are off the per-row
// hot path. The ℓ gauge is last-writer-wins across concurrent shards:
// a live view of "a current sketch rank", exact when one sketch is
// active (the Monitor case).
var (
	obsRotations   = obs.Default().Counter("arams_sketch_rotations_total")
	obsShrinkDelta = obs.Default().Counter("arams_sketch_shrink_delta_total")
	obsMerges      = obs.Default().Counter("arams_sketch_merges_total")
	obsGrows       = obs.Default().Counter("arams_sketch_rank_grow_events_total")
	obsEllGauge    = obs.Default().Gauge("arams_sketch_ell")
)

// SVDBackend selects the factorization used in the FD rotation step.
type SVDBackend int

const (
	// GramSVD eigendecomposes the small 2ℓ×2ℓ Gram matrix BBᵀ — the
	// fast path for wide buffers (default).
	GramSVD SVDBackend = iota
	// JacobiSVD runs a one-sided Jacobi SVD directly on the buffer;
	// slower but maximally accurate, used for cross-validation.
	JacobiSVD
)

// Options configures a FrequentDirections sketch.
type Options struct {
	// Backend selects the SVD implementation for rotations.
	Backend SVDBackend
}

// FrequentDirections maintains a fast-FD sketch: a 2ℓ×d buffer that is
// shrunk to ℓ nonzero rows by one SVD every ℓ appended rows. The buffer
// is the only d-long storage a sketch holds: a rotation decomposes it in
// place, and Basis decomposes its occupied rows on every call, so no
// factor is cached beside it and a sketch is exactly its State.
type FrequentDirections struct {
	ell  int
	d    int
	opts Options

	buffer   *mat.Matrix // 2ℓ×d
	nextZero int         // index of the next zero row in buffer

	rotations  int     // number of shrink steps performed (for accounting)
	seen       int     // number of data rows appended
	totalDelta float64 // cumulative shrinkage Σδ across rotations
	frobMass   float64 // cumulative ‖A‖_F² of the summarized stream

	// Storage the rotation reuses so its steady state allocates nothing:
	// sigma receives the 2ℓ singular values, filledView is the header of
	// the occupied buffer prefix.
	sigma      []float64
	filledView mat.Matrix
}

// NewFrequentDirections creates a sketch with ℓ retained directions
// over d features. Its 2ℓ×d buffer comes from the mat vector pool, so a
// sketch built right after another of the same shape was released (a
// tenant restored after its hibernation closed the shard) reuses that
// storage.
func NewFrequentDirections(ell, d int, opts Options) *FrequentDirections {
	if ell <= 0 || d <= 0 {
		panic(fmt.Sprintf("sketch: invalid dimensions ℓ=%d d=%d", ell, d))
	}
	return &FrequentDirections{
		ell:    ell,
		d:      d,
		opts:   opts,
		buffer: pooledBuffer(ell, d),
	}
}

// pooledBuffer borrows a zeroed 2ℓ×d buffer from the mat vector pool.
func pooledBuffer(ell, d int) *mat.Matrix {
	return &mat.Matrix{RowsN: 2 * ell, ColsN: d, Stride: d, Data: mat.GetVec(2 * ell * d)}
}

// Release hands the sketch's 2ℓ×d buffer back to the mat vector pool.
// The sketch must not be used afterwards, and nothing may still read the
// buffer. Only an owner releases it: a closed shard backend its live
// sketch, a merge the operands it owns once they are folded, a basis
// reader the merged sketch once its basis is cut. Never a holder of a
// Clone's source or of a state copied from it — Clone and State copy,
// so neither shares the buffer.
func (fd *FrequentDirections) Release() {
	if fd.buffer == nil {
		return
	}
	mat.PutVec(fd.buffer.Data)
	fd.buffer, fd.filledView = nil, mat.Matrix{}
}

// Ell returns the current number of retained directions.
func (fd *FrequentDirections) Ell() int { return fd.ell }

// Dim returns the feature dimension d.
func (fd *FrequentDirections) Dim() int { return fd.d }

// Rotations returns how many SVD shrink steps have run; the
// parallelization experiments count these to show the tree merge's
// logarithmic rotation count.
func (fd *FrequentDirections) Rotations() int { return fd.rotations }

// Seen returns the number of rows appended so far.
func (fd *FrequentDirections) Seen() int { return fd.seen }

// Append adds one data row to the sketch, rotating if the buffer is
// full.
func (fd *FrequentDirections) Append(row []float64) {
	fd.appendNorm(row, mat.Norm2Sq(row))
}

// appendNorm is Append for a caller that already holds
// n2 = mat.Norm2Sq(row): the d-long dependent sum is formed once per
// row, not once per account that wants it.
func (fd *FrequentDirections) appendNorm(row []float64, n2 float64) {
	if len(row) != fd.d {
		panic(fmt.Sprintf("sketch: row length %d != d=%d", len(row), fd.d))
	}
	if fd.nextZero == fd.buffer.RowsN {
		fd.rotate()
	}
	copy(fd.buffer.Row(fd.nextZero), row)
	fd.nextZero++
	fd.seen++
	fd.frobMass += n2
}

// AppendMatrix adds every row of x to the sketch.
func (fd *FrequentDirections) AppendMatrix(x *mat.Matrix) {
	for i := 0; i < x.RowsN; i++ {
		fd.Append(x.Row(i))
	}
}

// rotate performs the fast-FD shrink: SVD the buffer, subtract σ_ℓ²
// from all squared singular values, and rewrite the buffer as
// √(Σ²−δI)·Vᵀ with the last ℓ rows zeroed.
func (fd *FrequentDirections) rotate() { fd.shrink(fd.decompose()) }

// decompose is the first half of a rotation: it overwrites the leading
// ℓ rows of the buffer (fewer if it holds fewer) with the right singular
// vectors Vᵀ of the occupied prefix — the only directions the shrink can
// keep — and returns the whole spectrum. Until shrink scales them, those
// rows are the rotation's unscaled basis.
func (fd *FrequentDirections) decompose() []float64 {
	filled := fd.filled(fd.nextZero)
	if fd.opts.Backend == JacobiSVD {
		_, sigma, vt := mat.SVD(filled)
		for i := 0; i < min(fd.ell, vt.RowsN); i++ {
			copy(fd.buffer.Row(i), vt.Row(i))
		}
		return sigma
	}
	// The pooled Gram-trick path back-multiplies Σ⁻¹Uᵀ over the buffer
	// itself, so the steady-state rotation allocates nothing and holds
	// no ℓ×d Vᵀ beside the buffer.
	fd.sigma = mat.SVDGramInPlace(filled, fd.sigma[:0], min(fd.ell, filled.RowsN))
	return fd.sigma
}

// shrink is the second half: it scales the kept rows of Vᵀ by
// √(σᵢ²−δ) where they lie — the multiply ScaleTo(row, s, vᵢ) would make
// from a separate Vᵀ, so the same bits — and clears the rest.
func (fd *FrequentDirections) shrink(sigma []float64) {
	var delta float64
	if fd.ell < len(sigma) {
		delta = sigma[fd.ell] * sigma[fd.ell]
	}
	fd.totalDelta += delta
	kept := 0
	for n := min(fd.ell, len(sigma)); kept < n; kept++ {
		s2 := sigma[kept]*sigma[kept] - delta
		if s2 <= 0 {
			break // spectrum is descending; the rest are zero too
		}
		row := fd.buffer.Row(kept)
		mat.ScaleTo(row, math.Sqrt(s2), row)
	}
	for i := kept; i < fd.buffer.RowsN; i++ {
		clear(fd.buffer.Row(i))
	}
	fd.nextZero = fd.ell
	fd.rotations++
	obsRotations.Inc()
	obsShrinkDelta.Add(delta)
	obsEllGauge.SetInt(fd.ell)
}

// Compact forces a final rotation if more than ℓ rows are occupied, so
// that the sketch fits in ℓ rows. It is called automatically by Sketch.
func (fd *FrequentDirections) Compact() {
	if fd.nextZero > fd.ell {
		fd.rotate()
	}
}

// Sketch returns the current ℓ×d sketch matrix B (a copy). Rows beyond
// the retained directions are zero.
func (fd *FrequentDirections) Sketch() *mat.Matrix {
	fd.Compact()
	out := mat.New(fd.ell, fd.d)
	for i := 0; i < min(fd.ell, fd.nextZero); i++ {
		copy(out.Row(i), fd.buffer.Row(i))
	}
	return out
}

// Delta returns the cumulative shrinkage Σδ applied across rotations —
// the total squared-singular-value mass subtracted from every retained
// direction so far. By the Frequent Directions guarantee (Liberty 2013)
// it certifies ‖AᵀA − BᵀB‖₂ ≤ Σδ online, and the mergeability result of
// Ghashami et al. makes the certificate compose additively under Merge.
func (fd *FrequentDirections) Delta() float64 { return fd.totalDelta }

// FrobMass returns the accumulated squared Frobenius norm ‖A‖_F² of the
// stream the sketch summarizes (merge-aware: merging adds the other
// stream's mass, not the mass of its compressed sketch rows). It scales
// Delta into the relative certificate Σδ/‖A‖_F² and reproduces the
// a-priori bound ‖A‖_F²/ℓ.
func (fd *FrequentDirections) FrobMass() float64 { return fd.frobMass }

// Basis returns the top-k right singular vectors of the sketch as a
// k×d matrix with orthonormal rows — the PCA basis used to project data
// into latent space. k is clamped to ℓ and to the numerical rank of the
// sketch.
//
// It is a pure read: it decomposes the occupied rows as they lie and
// back-multiplies only the rows it returns, straight into its result,
// and changes nothing — so concurrent Basis calls on one sketch are
// safe, and the basis is a function of State. Over more than ℓ occupied
// rows, the rows are those the next rotation would keep, unscaled; the
// clamp to ℓ is that rotation's.
//
// The result's storage is a k×d array from the mat vector pool, the
// caller's: once nothing reads the basis, the caller may hand its Data
// to mat.PutVec (a rank-clamped basis is a view of the array's leading
// rows, so its Data keeps the whole array's capacity), or simply drop
// it.
func (fd *FrequentDirections) Basis(k int) *mat.Matrix {
	k = min(k, min(fd.ell, fd.nextZero))
	if k <= 0 {
		return mat.New(0, fd.d)
	}
	out := mat.FromData(k, fd.d, mat.GetVec(k*fd.d))
	sigma := mat.SVDGramTo(fd.buffer.Rows(0, fd.nextZero), nil, out)
	rank := 0
	for _, s := range sigma {
		// The Gram-trick SVD squares the condition number, so roundoff
		// noise sits near 1e-8·σmax; anything below 1e-6·σmax is
		// numerically zero for basis purposes.
		if s > 1e-6*sigma[0] && s > 0 {
			rank++
		}
	}
	switch {
	case rank == 0:
		mat.PutVec(out.Data)
		return mat.New(0, fd.d)
	case rank < k:
		// The leading rows of the k-row product are the rank-row
		// product's (mat.TestSVDGramToLeadingRows), so this just cuts.
		return out.Rows(0, rank)
	}
	return out
}

// Merge folds another sketch into fd by stacking other's rows into the
// buffer and rotating — exactly the mergeable-summary construction of
// Ghashami et al. The two sketches must have the same feature dimension.
// If other retains more directions, fd grows to match before merging so
// no mass is dropped. other is compacted and its rows are read in place,
// so a sketch merged into itself is cloned first.
func (fd *FrequentDirections) Merge(other *FrequentDirections) {
	if fd.d != other.d {
		panic("sketch: Merge dimension mismatch")
	}
	if other == fd {
		other = fd.Clone()
		defer other.Release()
	}
	if other.ell > fd.ell {
		fd.Grow(other.ell - fd.ell)
	}
	other.Compact()
	appended := 0
	var appendedMass float64
	for i := 0; i < min(other.ell, other.nextZero); i++ {
		row := other.buffer.Row(i)
		n2 := mat.Norm2Sq(row)
		if n2 == 0 {
			continue // zero rows between rotations would dilute accuracy
		}
		fd.Append(row)
		appended++
		appendedMass += n2
	}
	// Append counted sketch rows as data rows; replace that with the
	// true number of underlying samples (and the true stream energy)
	// the other sketch summarizes.
	fd.seen += other.seen - appended
	fd.frobMass += other.frobMass - appendedMass
	fd.rotations += other.rotations
	fd.totalDelta += other.totalDelta
	obsMerges.Inc()
}

// Grow increases the number of retained directions by dl, extending the
// buffer. Existing sketch content is preserved. The wider buffer comes
// from the mat vector pool and the old one goes back to it: the sketch
// is its sole owner, since State and Clone copy.
func (fd *FrequentDirections) Grow(dl int) {
	if dl <= 0 {
		return
	}
	newEll := fd.ell + dl
	nb := pooledBuffer(newEll, fd.d)
	copy(nb.Data, fd.buffer.Data[:fd.nextZero*fd.d])
	mat.PutVec(fd.buffer.Data)
	fd.buffer, fd.filledView = nb, mat.Matrix{}
	fd.ell = newEll
	obsGrows.Inc()
	obsEllGauge.SetInt(fd.ell)
}

// filled returns an m×d view of the occupied buffer prefix through a
// reusable header, so the rotation path allocates nothing.
func (fd *FrequentDirections) filled(m int) *mat.Matrix {
	fd.filledView = mat.Matrix{
		RowsN:  m,
		ColsN:  fd.d,
		Stride: fd.buffer.Stride,
		Data:   fd.buffer.Data[:(m-1)*fd.buffer.Stride+fd.d],
	}
	return &fd.filledView
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
