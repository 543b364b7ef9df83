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

	// A split Gram's widened panels: slots of slot floats in wide, the
	// free ones' indices in free, under mu.
	wide []float64
	slot int
	mu   sync.Mutex
	free []int

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
	j.dst, j.a, j.b, j.low, j.wide = nil, nil, nil, nil, nil
	kernelJobPool.Put(j)
}

// gramChunk forms the partial Gram matrices of panels [lo, hi) of the
// current round: the serial kernel over all rows of one k-panel each,
// widened first when the operand has float32 rows. The widened panel
// goes in an array on the chunk's own stack when its rows fit there —
// sixteen, a sketch of ℓ ≤ 8 — so no pool can drop it; otherwise in a
// slot of the job's scratch (gramPanels), one per chunk in flight, so
// chunks on different workers never share one.
func (j *kernelJob) gramChunk(lo, hi int) {
	switch {
	case len(j.low) == 0:
		j.gramInto(lo, hi, nil)
	case gramOnStack(split{top: j.a, low: j.low}.rows()):
		var stack [splitStack]float64
		j.gramInto(lo, hi, stack[:])
	default:
		k := j.takeSlot()
		defer j.giveSlot(k)
		j.gramInto(lo, hi, j.wide[k*j.slot:(k+1)*j.slot])
	}
}

// gramInto is gramChunk with its panel scratch chosen: buf, or nil for
// an operand with no float32 rows, whose panels are views.
func (j *kernelJob) gramInto(lo, hi int, buf []float64) {
	s := split{top: j.a, low: j.low}
	m := s.rows()
	for p := lo; p < hi; p++ {
		k0 := (j.first + p) * panelCols
		panel := s.panel(k0, min(k0+panelCols, s.top.ColsN), buf)
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

// takeSlot claims a free slot of the job's widened-panel scratch.
func (j *kernelJob) takeSlot() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := j.free[len(j.free)-1]
	j.free = j.free[:len(j.free)-1]
	return k
}

// giveSlot frees slot k.
func (j *kernelJob) giveSlot(k int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.free = append(j.free, k)
}

// splitChunk runs mulSplitTo (a is the coef, b and low the split) over
// column panels [lo, hi).
func (j *kernelJob) splitChunk(lo, hi int) {
	splitPanels(j.dst, j.a, split{top: j.b, low: j.low}, lo, hi)
}
