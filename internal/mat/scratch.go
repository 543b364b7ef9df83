package mat

import "sync"

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

// kernelJob carries one pooled GramTo, MulTo or mulInPlace call across
// the worker pool without allocating: the operands, GramTo's per-panel
// partials, and the chunk functions, which are bound to the job once,
// when it is made — a closure or method value built per call would be a
// heap allocation per call. Each call grabs its own job, so concurrent
// callers never share partials.
type kernelJob struct {
	dst, a, b *Matrix
	parts     []float64 // one m×m partial Gram matrix per panel of the round
	first     int       // the round's first panel

	gramFn, mulFn, inPlaceFn func(lo, hi int) // the chunk methods, bound to this job
}

var kernelJobPool = sync.Pool{
	New: func() interface{} {
		j := &kernelJob{}
		j.gramFn, j.mulFn, j.inPlaceFn = j.gramChunk, j.mulChunk, j.inPlaceChunk
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
	j.dst, j.a, j.b = nil, nil, nil
	kernelJobPool.Put(j)
}

// gramChunk forms the partial Gram matrices of panels [lo, hi) of the
// current round: the serial kernel over all rows of one k-panel each.
func (j *kernelJob) gramChunk(lo, hi int) {
	m := j.a.RowsN
	for p := lo; p < hi; p++ {
		k0 := (j.first + p) * panelCols
		panel := j.a.colView(k0, min(k0+panelCols, j.a.ColsN))
		// A literal, not FromData: that one's result is a heap allocation.
		part := Matrix{RowsN: m, ColsN: m, Stride: m, Data: j.parts[p*m*m : (p+1)*m*m]}
		gramRange(&part, &panel, 0, m)
	}
}

// mulChunk computes columns [lo, hi) of dst = a*b.
func (j *kernelJob) mulChunk(lo, hi int) {
	dst, b := j.dst.colView(lo, hi), j.b.colView(lo, hi)
	mulRangeTiled(&dst, j.a, &b, 0, j.a.RowsN)
}

// inPlaceChunk runs mulInPlace (dst is the matrix, a the coef) over
// column panels [lo, hi).
func (j *kernelJob) inPlaceChunk(lo, hi int) { inPlacePanels(j.dst, j.a, lo, hi) }
