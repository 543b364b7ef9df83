package mat

import (
	"math"
	"time"
)

// How the three dense kernels meet the shared pool. The shapes that
// matter are 2ℓ×d with d ≫ ℓ (25 rows against 4096, 16384, 1658880
// columns), so the two kernels of the FD rotation split along d:
//
//   - GramTo hands each task whole k-panels of panelCols columns. A
//     task runs the serial gramRange on a column view of one panel into
//     that panel's own m×m partial, and the caller then adds the
//     partials into dst in panel order. The serial kernel gives every
//     output one sum per panel, sequential in k and started at zero, and
//     adds the panels' sums in order; so does this — the one element it
//     sums through Dot included, because each panel is a whole-range
//     call — and the bits are the serial kernel's at every pool width.
//     A split along the 2ℓ output rows cannot promise that (an odd row
//     chunk moves the Dot-summed element), re-packs every four-column
//     group for two tiles where the full sweep serves thirteen, and is
//     triangular: the first of seven chunks owes nine times the last's
//     outputs. Panels are equal work. The partials come from a pooled
//     job a few panels per worker long, reduced in rounds, so scratch
//     is bounded by the pool width and m, never by d.
//   - MulTo hands each task a column range of dst and b when columns
//     are the long axis. Every dst element is the same k-ordered chain
//     of multiply-adds under any column cut, and a task streams only its
//     own columns of b rather than the whole buffer per row chunk.
//     mulSplitTo (split.go), the same product over a float64 block
//     stacked on a float32 one and written over the first, cuts the same
//     way, in column panels sized to a 128 KB stack slot; gramSplitTo
//     takes GramTo's panels.
//   - MulABtTo and MulRowsABt (a window×d projection: rows are the long
//     axis and each output needs all of d; the window may be a matrix or
//     a list of float32 rows, leftRows in blocked.go, and the chunks are
//     cut the same) and MulTo on a tall product split by rows,
//     cut only on multiples of four. Every chunk but the last then has
//     an even row count, and the last has the parity of the whole: the
//     Dot-summed element falls where the serial kernel puts it.
//
// Hence the one promise every caller may rely on: a pooled dense kernel
// returns the serial kernel's bits at every pool width.

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
// ones split across the shared worker pool along the longer of dst's
// two axes.
func MulTo(dst, a, b *Matrix) {
	if a.ColsN != b.RowsN || dst.RowsN != a.RowsN || dst.ColsN != b.ColsN {
		panic("mat: MulTo shape mismatch")
	}
	start := time.Now()
	rows, cols := a.RowsN, b.ColsN
	work := rows * a.ColsN * cols
	switch {
	case work < parallelThreshold || Workers() == 1:
		mulRangeTiled(dst, a, b, 0, rows)
	case cols >= rows:
		j := grabKernelJob(dst, a, b)
		ParallelFor(cols, minChunk(work, cols), j.mulFn)
		releaseKernelJob(j)
	default:
		parallelRowQuads(rows, work, func(lo, hi int) {
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
	mulABtLeft(dst, leftRows{m: a}, b)
}

// MulRowsABt returns rows·bᵀ for float32 rows that need not share a
// backing array: the projection of a list of vectors read where they
// lie. It is MulABt of the float64 matrix those rows widen to, bit for
// bit and at every pool width, without making it: each block of rows is
// widened one k-panel at a time into scratch, and the kernels run on
// that. Every row must be b.Cols long.
func MulRowsABt(rows [][]float32, b *Matrix) *Matrix {
	for _, r := range rows {
		if len(r) != b.ColsN {
			panic("mat: MulRowsABt inner dimension mismatch")
		}
	}
	out := New(len(rows), b.RowsN)
	mulABtLeft(out, leftRows{list: rows}, b)
	return out
}

// mulABtLeft is the body of both: dst = a*bᵀ, shapes already checked.
func mulABtLeft(dst *Matrix, a leftRows, b *Matrix) {
	start := time.Now()
	rows := dst.RowsN
	work := rows * b.RowsN * b.ColsN
	if work < parallelThreshold || Workers() == 1 {
		mulABtRange(dst, a, b, 0, rows)
	} else {
		parallelRowQuads(rows, work, func(lo, hi int) {
			mulABtRange(dst, a, b, lo, hi)
		})
	}
	observeSince(obsKernelMulABt, start)
}

// mulABtRange computes rows [lo, hi) of dst = a*bᵀ. A list operand is
// widened into scratch from the vector pool, one per call, so chunks on
// different workers never share it: a block of rows of one k-panel,
// 512 KB at the most. (A 128 KB stack slot holds 16 rows of a panel,
// and blocks of 16 pack every group of b four times as often: at
// BenchmarkMulABtProjectionShape's 1024 × 4096 against 20 rows that
// took 1.4× the matrix product's time, against 1.2× in whole blocks.)
func mulABtRange(dst *Matrix, a leftRows, b *Matrix, lo, hi int) {
	if a.list != nil {
		a.wide = GetVec(min(hi-lo, packedRowBlock) * min(b.ColsN, panelCols))
		defer PutVec(a.wide)
	}
	mulABtRangeTiled(dst, &a, b, lo, hi)
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
	if work < parallelThreshold || a.ColsN <= panelCols || Workers() == 1 {
		gramRange(dst, a, 0, m)
	} else {
		gramPanels(dst, split{top: a}, work)
	}
	mirrorLower(dst)
	observeSince(obsKernelGram, start)
}

// gramOnStack reports whether a split Gram over m rows widens its
// panels on the chunk's stack (gramChunk) rather than in pooled slots.
func gramOnStack(m int) bool { return m*panelCols <= splitStack }

// gramPanels is GramTo's pooled branch and gramSplitTo's only one:
// rounds of per-panel partial Gram matrices of s, each round added into
// dst in panel order.
func gramPanels(dst *Matrix, s split, work int) {
	m := s.rows()
	panels := (s.top.ColsN + panelCols - 1) / panelCols
	perChunk := minChunk(work, panels)
	// One round fills the pool's chunk cap; more partials than that
	// would buy no parallelism.
	round := min(panels, 4*Workers()*perChunk)
	j := grabKernelJob(dst, s.top, nil)
	j.low = s.low
	j.parts = ensureFloats(j.parts, round*m*m)
	if len(s.low) > 0 && !gramOnStack(m) {
		// Each chunk in flight widens its panels into a slot of its own:
		// one for an inline round, else one per worker and one for the
		// caller. The caller draws every slot, as one array, before the
		// rounds, so every decomposition of one sketch shape takes the
		// same array from the pool however the chunks are scheduled. A
		// slot holds the panel of twice top's rows at least, so that a
		// Frequent Directions sketch — whose float32 rows never
		// outnumber its float64 ones, and whose merges compact over
		// fewer than 2ℓ rows — draws the one size; the array is bigMin
		// long at least, so that it sits on a free list, which keeps
		// every put, where a sync.Pool would drop some (vecpool.go).
		slots := 1
		if !inlineFor(round, perChunk) {
			slots = Workers() + 1
		}
		j.slot = max(m, 2*s.top.RowsN) * panelCols
		j.wide = getScratch(max(slots*j.slot, bigMin))
		j.free = j.free[:0]
		for k := 0; k < slots; k++ {
			j.free = append(j.free, k)
		}
		defer PutVec(j.wide)
	}
	dst.Zero()
	for j.first = 0; j.first < panels; j.first += round {
		n := min(round, panels-j.first)
		ParallelFor(n, perChunk, j.gramFn)
		for p := 0; p < n; p++ {
			part := j.parts[p*m*m : (p+1)*m*m]
			for i := 0; i < m; i++ {
				axpy(1, part[i*m:(i+1)*m], dst.Row(i))
			}
		}
	}
	releaseKernelJob(j)
}

// parallelRowQuads runs fn over [0, rows) on the pool in chunks cut
// only on multiples of four rows.
func parallelRowQuads(rows, work int, fn func(lo, hi int)) {
	quads := (rows + 3) / 4
	ParallelFor(quads, minChunk(work, quads), func(lo, hi int) {
		fn(4*lo, min(4*hi, rows))
	})
}

// minChunk sizes the parallel-for chunks of work multiply-adds spread
// evenly over n units so each carries at least parallelThreshold.
func minChunk(work, n int) int {
	per := work / n
	if per <= 0 {
		return n
	}
	return (parallelThreshold + per - 1) / per
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
	out := make([]float64, a.ColsN)
	MulTVecSplitTo(out, a, nil, x, nil)
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
