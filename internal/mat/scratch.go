package mat

import (
	"sync"
	"unsafe"
)

// Pooled scratch for the Gram-trick SVD and for the pooled kernels
// under it (kernelJob, below). One svdScratch carries every
// intermediate the rotation path needs — the m×m Gram matrix, the
// eigensolver's vector matrix, its eigenvalue and sub-diagonal buffers,
// and the back-substitution coefficients — so a steady stream of FD rotations
// reuses the same storage instead of allocating ~m² + md floats per
// rotation and feeding the garbage collector at the machine repetition
// rate.

type svdScratch struct {
	g    *Matrix   // m×m Gram matrix, destroyed by the eigensolver
	ut   *Matrix   // m×m eigenvectors as rows (Uᵀ)
	coef *Matrix   // r×m leading rows of Σ⁻¹Uᵀ
	vt   Matrix    // SVDGramInPlace's header of the rows it writes
	vals []float64 // eigenvalues
	work []float64 // the eigensolver's sub-diagonal and Householder workspace
}

var svdScratchPool = sync.Pool{
	New: func() interface{} { return &svdScratch{} },
}

func grabSVDScratch() *svdScratch {
	return svdScratchPool.Get().(*svdScratch)
}

func releaseSVDScratch(sc *svdScratch) {
	svdScratchPool.Put(sc)
}

// ensureMat returns m resized to r×c with compact stride, reusing its
// backing array when capacity allows (contents are unspecified).
func ensureMat(m *Matrix, r, c int) *Matrix {
	if m == nil || cap(m.Data) < r*c {
		return New(r, c)
	}
	m.RowsN, m.ColsN, m.Stride = r, c, c
	m.Data = m.Data[:r*c]
	return m
}

// ensureFloats returns s resized to n, reusing capacity when possible
// (contents are unspecified).
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// kernelJob carries one pooled GramTo, gramSplitTo, MulTo or
// mulSplitTo call across the worker pool without allocating: the
// operands, GramTo's per-panel
// partials, and the chunk functions, which are bound to the job once,
// when it is made — a closure or method value built per call would be a
// heap allocation per call. Each call grabs its own job, so concurrent
// callers never share partials.
type kernelJob struct {
	dst, a, b *Matrix
	low       [][]float32 // the split operand's float32 rows, below a (Gram) or b (mulSplitTo)
	parts     []float64   // one m×m partial Gram matrix per panel of the round
	first     int         // the round's first panel

	gramFn, mulFn, splitFn func(lo, hi int) // the chunk methods, bound to this job
}

var kernelJobPool = sync.Pool{
	New: func() interface{} {
		j := &kernelJob{}
		j.gramFn, j.mulFn, j.splitFn = j.gramChunk, j.mulChunk, j.splitChunk
		return j
	},
}

func grabKernelJob(dst, a, b *Matrix) *kernelJob {
	j := kernelJobPool.Get().(*kernelJob)
	j.dst, j.a, j.b = dst, a, b
	return j
}

// releaseKernelJob drops the operands before pooling the job, so an
// idle job pins nobody's matrices.
func releaseKernelJob(j *kernelJob) {
	j.dst, j.a, j.b, j.low = nil, nil, nil, nil
	kernelJobPool.Put(j)
}

// gramChunk forms the partial Gram matrices of panels [lo, hi) of the
// current round: the serial kernel over all rows of one k-panel each.
// An operand with float32 rows is widened a run of columns of the panel
// at a time into an array on the chunk's own stack (splitPanels' slot),
// and gramFrom carries every sum on from one run to the next, so each
// partial is the serial kernel's on the widened panel, bit for bit, and
// the chunk's scratch is the same at every pool width.
func (j *kernelJob) gramChunk(lo, hi int) {
	s := split{top: j.a, low: j.low}
	m := s.rows()
	if len(s.low) == 0 {
		for p := lo; p < hi; p++ {
			k0 := (j.first + p) * panelCols
			panel := s.top.colView(k0, min(k0+panelCols, s.top.ColsN))
			part := j.part(p, m)
			gramRange(&part, &panel, 0, m)
		}
		return
	}
	w := splitWidth(m)
	var stack [splitStack]float64
	slot := stack[int(-uintptr(unsafe.Pointer(&stack[0]))&4095)/8:]
	if m*w > len(slot) {
		slot = make([]float64, m*w) // thousands of rows: eight columns a run
	}
	for p := lo; p < hi; p++ {
		k0 := (j.first + p) * panelCols
		k1 := min(k0+panelCols, s.top.ColsN)
		part := j.part(p, m)
		clear(part.Data)
		packed := packedPays(m, m, k1-k0)
		for c0 := k0; c0 < k1; c0 += w {
			run := s.panel(c0, min(c0+w, k1), slot)
			gramFrom(&part, &run, packed)
		}
		if m%2 == 1 {
			// gramRange sums the last row's diagonal through Dot, over
			// the whole panel; that row is a float32 one.
			row := slot[:k1-k0]
			Widen(row, s.low[len(s.low)-1][k0:k1])
			part.Row(m - 1)[m-1] = Dot(row, row)
		}
	}
}

// part is the partial Gram matrix of panel p of the round.
func (j *kernelJob) part(p, m int) Matrix {
	// A literal, not FromData: that one's result is a heap allocation.
	return Matrix{RowsN: m, ColsN: m, Stride: m, Data: j.parts[p*m*m : (p+1)*m*m]}
}

// mulChunk computes columns [lo, hi) of dst = a*b.
func (j *kernelJob) mulChunk(lo, hi int) {
	dst, b := j.dst.colView(lo, hi), j.b.colView(lo, hi)
	mulRangeTiled(&dst, j.a, &b, 0, j.a.RowsN)
}

// splitChunk runs mulSplitTo (a is the coef, b and low the split) over
// column panels [lo, hi).
func (j *kernelJob) splitChunk(lo, hi int) {
	splitPanels(j.dst, j.a, split{top: j.b, low: j.low}, lo, hi)
}
