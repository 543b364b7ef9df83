package mat

import (
	"math"
	"time"
)

// parallelThreshold is the minimum number of multiply-adds before a
// kernel spreads work across the shared pool; below it the dispatch
// overhead dominates and the serial tiled fast path runs on the
// calling goroutine — which is what every 2ℓ×2ℓ product of the FD
// rotation hits.
const parallelThreshold = 1 << 18

// Mul returns a*b. Panics if the inner dimensions disagree.
func Mul(a, b *Matrix) *Matrix {
	if a.ColsN != b.RowsN {
		panic("mat: Mul inner dimension mismatch")
	}
	out := New(a.RowsN, b.ColsN)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b, reusing dst's storage. dst must not alias a
// or b. Small products run serially on the calling goroutine; large
// ones split across the shared worker pool by destination rows.
func MulTo(dst, a, b *Matrix) {
	if a.ColsN != b.RowsN || dst.RowsN != a.RowsN || dst.ColsN != b.ColsN {
		panic("mat: MulTo shape mismatch")
	}
	start := time.Now()
	rows := a.RowsN
	work := rows * a.ColsN * b.ColsN
	if work < parallelThreshold || rows < 2 || Workers() == 1 {
		mulRangeTiled(dst, a, b, 0, rows)
	} else {
		minChunk := minChunkRows(work, rows)
		ParallelFor(rows, minChunk, func(lo, hi int) {
			mulRangeTiled(dst, a, b, lo, hi)
		})
	}
	observeSince(obsKernelMul, start)
}

// MulABt returns a*bᵀ, streaming rows of both operands; this is the
// cache-friendly product for computing projections of wide buffers.
func MulABt(a, b *Matrix) *Matrix {
	if a.ColsN != b.ColsN {
		panic("mat: MulABt inner dimension mismatch")
	}
	out := New(a.RowsN, b.RowsN)
	MulABtTo(out, a, b)
	return out
}

// MulABtTo computes dst = a*bᵀ into caller-owned storage (dst must be
// a.Rows × b.Rows and must not alias a or b).
func MulABtTo(dst, a, b *Matrix) {
	if a.ColsN != b.ColsN || dst.RowsN != a.RowsN || dst.ColsN != b.RowsN {
		panic("mat: MulABtTo shape mismatch")
	}
	start := time.Now()
	rows := a.RowsN
	work := rows * b.RowsN * a.ColsN
	if work < parallelThreshold || rows < 2 || Workers() == 1 {
		mulABtRangeTiled(dst, a, b, 0, rows)
	} else {
		minChunk := minChunkRows(work, rows)
		ParallelFor(rows, minChunk, func(lo, hi int) {
			mulABtRangeTiled(dst, a, b, lo, hi)
		})
	}
	observeSince(obsKernelMulABt, start)
}

// Gram returns a*aᵀ (the small Gram matrix of a short-and-wide buffer),
// exploiting symmetry so only the upper triangle is computed.
func Gram(a *Matrix) *Matrix {
	out := New(a.RowsN, a.RowsN)
	GramTo(out, a)
	return out
}

// GramTo computes dst = a*aᵀ into caller-owned storage (dst must be
// a.Rows × a.Rows and must not alias a). Only the upper triangle is
// computed by the tiled kernel; the lower triangle is mirrored.
func GramTo(dst, a *Matrix) {
	if dst.RowsN != a.RowsN || dst.ColsN != a.RowsN {
		panic("mat: GramTo shape mismatch")
	}
	m := a.RowsN
	if m == 0 {
		return
	}
	start := time.Now()
	work := m * m * a.ColsN / 2
	if work < parallelThreshold || m < 2 || Workers() == 1 {
		gramRange(dst, a, 0, m)
	} else {
		minChunk := minChunkRows(work, m)
		ParallelFor(m, minChunk, func(lo, hi int) {
			gramRange(dst, a, lo, hi)
		})
	}
	mirrorLower(dst)
	observeSince(obsKernelGram, start)
}

// minChunkRows sizes parallel-for chunks so each carries at least
// parallelThreshold multiply-adds.
func minChunkRows(work, rows int) int {
	perRow := work / rows
	if perRow <= 0 {
		return rows
	}
	mc := (parallelThreshold + perRow - 1) / perRow
	if mc < 1 {
		mc = 1
	}
	return mc
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	return dotKernel(x, y)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Two-pass scaled computation avoids overflow/underflow.
	var mx float64
	for _, v := range x {
		if a := abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	inv := 1 / mx
	for _, v := range x {
		t := v * inv
		s += t * t
	}
	return mx * math.Sqrt(s)
}

// Norm2Sq returns the squared Euclidean norm of x.
func Norm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// ScaleTo computes dst = s*src element by element. The lengths must
// match; dst may be src but must not otherwise overlap it.
func ScaleTo(dst []float64, s float64, src []float64) {
	if len(dst) != len(src) {
		panic("mat: ScaleTo length mismatch")
	}
	scale(dst, s, src)
}

// MulVec returns a*x for a vector x of length a.Cols.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.ColsN != len(x) {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, a.RowsN)
	for i := 0; i < a.RowsN; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// MulTVec returns aᵀ*x for a vector x of length a.Rows.
func MulTVec(a *Matrix, x []float64) []float64 {
	if a.RowsN != len(x) {
		panic("mat: MulTVec dimension mismatch")
	}
	out := make([]float64, a.ColsN)
	for i := 0; i < a.RowsN; i++ {
		if x[i] != 0 {
			axpy(x[i], a.Row(i), out)
		}
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
