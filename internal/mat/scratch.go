package mat

import "sync"

// Pooled scratch for the Gram-trick SVD. One svdScratch carries every
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
