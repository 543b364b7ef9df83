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
// n×d stream is an ℓ×d matrix B with ‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F²/ℓ, plus the
// charge for storing appended rows at float32 (Delta).
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

// Options configures a FrequentDirections sketch. It has no fields
// left: the rotation has one factorization, the Gram trick over the
// split buffer (mat.SVDGramInPlace). The type stays for the callers that
// name it, benchmark/replay.go among them.
type Options struct{}

// FrequentDirections maintains a fast-FD sketch: a 2ℓ×d buffer that is
// shrunk to ℓ nonzero rows by one SVD every ℓ appended rows. The buffer
// is held in two blocks. kept is ℓ×d float64 and holds the rows the last
// rotation wrote, √(σᵢ²−δ)·vᵢ; incoming is ℓ×d float32 and holds the rows
// appended since. Before the first rotation, and over the rows a Grow
// adds to kept, kept holds appended rows too, rounded to float32 and
// widened back, so every appended row is rounded to float32 exactly once
// and every row a rotation writes stays float64. Buffer row i < nextZero
// is kept's row i for i < ℓ and incoming's row i−ℓ after.
//
// Every rotation, basis read and merge does the float64 arithmetic of
// the 2ℓ×d float64 buffer those rows widen to (mat.SVDGramSplitTo), so
// the sketch is, bit for bit, the all-float64 sketch of the stream with
// each row rounded to float32; Σδ carries that rounding (appendCharge),
// so Delta still bounds ‖AᵀA − BᵀB‖₂ for the float64 stream A. The two
// blocks are the only d-long storage a sketch holds: a rotation
// decomposes them in place, and Basis decomposes the occupied rows on
// every call, so no factor is cached beside them and a sketch is exactly
// its State.
type FrequentDirections struct {
	ell int
	d   int

	kept     *mat.Matrix // ℓ×d float64
	incoming []float32   // ℓ×d float32, row-major
	nextZero int         // index of the next free buffer row

	rotations  int     // number of shrink steps performed (for accounting)
	seen       int     // number of data rows appended
	totalDelta float64 // Σδ: shrinkage across rotations plus every append's rounding charge
	frobMass   float64 // cumulative ‖A‖_F² of the summarized stream

	// sigma receives the 2ℓ singular values, storage the rotation reuses
	// so its steady state allocates nothing.
	sigma []float64
}

// NewFrequentDirections creates a sketch with ℓ retained directions
// over d features. Its two ℓ×d blocks come from the mat vector pools, so
// a sketch built right after another of the same shape was released (a
// tenant restored after its hibernation closed the shard) reuses that
// storage.
func NewFrequentDirections(ell, d int, _ Options) *FrequentDirections {
	if ell <= 0 || d <= 0 {
		panic(fmt.Sprintf("sketch: invalid dimensions ℓ=%d d=%d", ell, d))
	}
	return &FrequentDirections{
		ell:      ell,
		d:        d,
		kept:     mat.FromData(ell, d, mat.GetVec(ell*d)),
		incoming: mat.GetVec32(ell * d),
	}
}

// Release hands the sketch's two blocks back to the mat vector pools.
// The sketch must not be used afterwards, and nothing may still read
// them. Only an owner releases them: a closed shard backend its live
// sketch, a merge the operands it owns once they are folded, a basis
// reader the merged sketch once its basis is cut. Never a holder of a
// Clone's source or of a state copied from it — Clone and State copy,
// so neither shares the blocks.
func (fd *FrequentDirections) Release() {
	if fd.kept == nil {
		return
	}
	mat.PutVec(fd.kept.Data)
	mat.PutVec32(fd.incoming)
	fd.kept, fd.incoming = nil, nil
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
// full. The row is stored rounded to float32; its elements must lie in
// float32's range (the engine drops a frame that does not), or the
// sketch holds an infinity and Finite reports it.
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
	if fd.nextZero == 2*fd.ell {
		fd.rotate()
	}
	fd.store(row, n2)
}

// store writes row, rounded to float32, into the next free buffer row
// and books it: the stream's mass gains the float64 row's n2, and Σδ
// the rounding's charge.
func (fd *FrequentDirections) store(row []float64, n2 float64) {
	if i := fd.nextZero; i < fd.ell {
		// No float32 row is occupied while a kept row is free, so the
		// float32 block's first row stages the rounding.
		tmp := fd.incoming[:fd.d]
		mat.Narrow(tmp, row)
		mat.Widen(fd.kept.Row(i), tmp)
	} else {
		off := (i - fd.ell) * fd.d
		mat.Narrow(fd.incoming[off:off+fd.d], row)
	}
	fd.nextZero++
	fd.seen++
	fd.frobMass += n2
	fd.totalDelta += appendCharge(n2, fd.d)
}

// The rounding an appended row takes is charged to Σδ, so that Delta
// bounds the covariance error against the float64 stream and not only
// against the rounded one the rotations see. Write a' = a + e for the
// row as stored. Round to nearest gives |eⱼ| ≤ u·|aⱼ| for an element in
// float32's normal range, u = 2⁻²⁴, and |eⱼ| ≤ η = 2⁻¹⁵⁰, half the
// subnormal spacing, below it; so ‖e‖ ≤ u‖a‖ + η√d, and
//
//	‖a'ᵀa' − aᵀa‖₂ = ‖aᵀe + eᵀa + eᵀe‖₂ ≤ 2‖a‖‖e‖ + ‖e‖²
//	               ≤ (2u + u²)‖a‖² + 2(1+u)η·√(d‖a‖²) + η²d.
//
// Summed over the rows, the triangle inequality puts the stream's whole
// rounding under Σ of these charges, and Liberty's argument, additive in
// per-rotation error, adds the rotations' shrinkage on top. The first
// term is the one that counts (1.2·10⁻⁷ of ‖A‖_F² in all, however long
// the stream); the other two matter only for rows of subnormal
// magnitude, and add nothing a float64 Σδ can hold otherwise. DESIGN.md,
// "Rows wait at float32", derives it in full.
const (
	chargeRel = 0x1p-23 + 0x1p-48            // 2u + u²
	chargeMix = 2 * (1 + 0x1p-24) * 0x1p-150 // 2(1+u)η
	chargeAbs = 0x1p-300                     // η²
)

// appendCharge is the Σδ charge for storing a row of squared norm n2
// and d elements at float32.
func appendCharge(n2 float64, d int) float64 {
	fd := float64(d)
	return chargeRel*n2 + chargeMix*math.Sqrt(fd*n2) + chargeAbs*fd
}

// AppendMatrix adds every row of x to the sketch.
func (fd *FrequentDirections) AppendMatrix(x *mat.Matrix) {
	for i := 0; i < x.RowsN; i++ {
		fd.Append(x.Row(i))
	}
}

// occupied returns the occupied buffer rows as the two blocks the mat
// split kernels take: kept's occupied rows, and the float32 rows below
// them.
func (fd *FrequentDirections) occupied() (*mat.Matrix, []float32) {
	if fd.nextZero <= fd.ell {
		return fd.kept.Rows(0, fd.nextZero), nil
	}
	return fd.kept, fd.incoming[:(fd.nextZero-fd.ell)*fd.d]
}

// rotate performs the fast-FD shrink: SVD the buffer, subtract σ_ℓ²
// from all squared singular values, and rewrite kept as √(Σ²−δI)·Vᵀ,
// leaving no incoming row occupied.
func (fd *FrequentDirections) rotate() { fd.shrink(fd.decompose()) }

// decompose is the first half of a rotation, run over more than ℓ
// occupied rows: it overwrites kept with the ℓ leading right singular
// vectors Vᵀ of the occupied rows — the only directions the shrink can
// keep — and returns the whole spectrum. Until shrink scales them, those
// rows are the rotation's unscaled basis. The pooled Gram-trick path
// back-multiplies Σ⁻¹Uᵀ over kept itself, so the steady-state rotation
// allocates nothing and holds no ℓ×d Vᵀ beside the buffer.
func (fd *FrequentDirections) decompose() []float64 {
	_, low := fd.occupied()
	fd.sigma = mat.SVDGramInPlace(fd.kept, low, fd.sigma[:0], fd.ell)
	return fd.sigma
}

// shrink is the second half: it scales the kept rows of Vᵀ by
// √(σᵢ²−δ) where they lie — the multiply ScaleTo(row, s, vᵢ) would make
// from a separate Vᵀ, so the same bits — and clears the rest of kept.
// The incoming rows are free again; nothing reads a free row before an
// append writes it.
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
		row := fd.kept.Row(kept)
		mat.ScaleTo(row, math.Sqrt(s2), row)
	}
	for i := kept; i < fd.ell; i++ {
		clear(fd.kept.Row(i))
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
	copy(out.Data, fd.kept.Data[:fd.nextZero*fd.d])
	return out
}

// Delta returns Σδ: the cumulative shrinkage applied across rotations —
// the total squared-singular-value mass subtracted from every retained
// direction so far — plus the charge for rounding every appended row to
// float32 (appendCharge). By the Frequent Directions guarantee (Liberty
// 2013) it certifies ‖AᵀA − BᵀB‖₂ ≤ Σδ online for the float64 stream A,
// and the mergeability result of Ghashami et al. makes the certificate
// compose additively under Merge.
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
	top, low := fd.occupied()
	sigma := mat.SVDGramSplitTo(top, low, nil, out)
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
// no mass is dropped. other is compacted and its float64 rows are read
// in place, so a sketch merged into itself is cloned first; appended to
// fd, they are rounded to float32 and charged to Σδ like any other row.
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
	for i := 0; i < other.nextZero; i++ {
		row := other.kept.Row(i)
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

// Grow increases the number of retained directions by dl, widening
// both blocks. Existing sketch content is preserved: the incoming rows
// that now fall within the first ℓ+dl buffer rows move into kept,
// widened exactly, and the rest stay float32. The wider blocks come from
// the mat vector pools and the old ones go back to them: the sketch is
// their sole owner, since State and Clone copy.
func (fd *FrequentDirections) Grow(dl int) {
	if dl <= 0 {
		return
	}
	newEll := fd.ell + dl
	kept := mat.FromData(newEll, fd.d, mat.GetVec(newEll*fd.d))
	incoming := mat.GetVec32(newEll * fd.d)
	top, low := fd.occupied()
	copy(kept.Data, top.Data[:top.RowsN*fd.d])
	for j := 0; j*fd.d < len(low); j++ {
		row := low[j*fd.d : (j+1)*fd.d]
		if i := fd.ell + j; i < newEll {
			mat.Widen(kept.Row(i), row)
		} else {
			copy(incoming[(i-newEll)*fd.d:], row)
		}
	}
	fd.Release()
	fd.kept, fd.incoming = kept, incoming
	fd.ell = newEll
	obsGrows.Inc()
	obsEllGauge.SetInt(fd.ell)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
