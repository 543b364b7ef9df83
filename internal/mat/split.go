package mat

import (
	"time"
	"unsafe"
)

// A Frequent Directions sketch keeps the rows its last rotation wrote in
// float64 and the rows appended since in float32 (internal/sketch). The
// rotation and the basis read decompose the two stacked, with the
// arithmetic of the float64 matrix they widen to: split is that operand,
// and the kernels in this file read it one column panel at a time, its
// float32 rows widened into scratch a panel holds, the way MulRowsABt
// widens the window — never a d-long float64 copy of the float32 rows.
// The float32 rows are a list of views, not one block: a sketch fed by
// the engine borrows the window's own vectors as its rows, and a panel
// is assembled row by row either way, so no kernel's summation order
// depends on where a row lies.
// Widening is exact and a column cut changes no output's sum (blas.go's
// header), so every result is the float64 kernel's on the widened
// matrix, bit for bit and at every pool width.

// split is the m×d matrix whose rows are top's and then low's: low holds
// m − top.RowsN rows of top.ColsN float32 elements each. A split with no
// low rows is top.
type split struct {
	top *Matrix
	low [][]float32
}

// newSplit checks that every row of low has top's width.
func newSplit(top *Matrix, low [][]float32) split {
	for _, r := range low {
		if len(r) != top.ColsN {
			panic("mat: a float32 row is not as wide as the float64 block")
		}
	}
	return split{top: top, low: low}
}

// rows is m, the row count of the stacked matrix.
func (s split) rows() int { return s.top.RowsN + len(s.low) }

// panel returns columns [k0, k1) of every row of s as an m×(k1−k0)
// matrix. With buf nil (s must have no low rows) it is a view of top;
// otherwise it is a copy in buf, which must hold m·(k1−k0) floats: top's
// segments copied, low's widened, both exactly.
func (s split) panel(k0, k1 int, buf []float64) Matrix {
	if buf == nil {
		return s.top.colView(k0, k1)
	}
	m, w := s.rows(), k1-k0
	p := Matrix{RowsN: m, ColsN: w, Stride: w, Data: buf[:m*w]}
	for i := 0; i < s.top.RowsN; i++ {
		copy(p.Row(i), s.top.Row(i)[k0:k1])
	}
	for i, r := range s.low {
		Widen(p.Row(s.top.RowsN+i), r[k0:k1])
	}
	return p
}

// MulTVecSplitTo sets dst = sᵀx for the matrix s whose rows are top's
// and then low's, and x with one element per row of s: dst gains
// x[i]·row i in row order, skipping a row whose x[i] is zero, which is
// MulTVec's chain. A float32 row is widened into w first, top.ColsN
// floats of the caller's that must not overlap dst (nil when low is
// empty), so dst holds MulTVec's bits on the widened matrix.
func MulTVecSplitTo(dst []float64, top *Matrix, low [][]float32, x, w []float64) {
	s := newSplit(top, low)
	if s.rows() != len(x) || len(dst) != top.ColsN {
		panic("mat: MulTVec dimension mismatch")
	}
	clear(dst)
	for i := 0; i < top.RowsN; i++ {
		if x[i] != 0 {
			axpy(x[i], top.Row(i), dst)
		}
	}
	for j, r := range low {
		if a := x[top.RowsN+j]; a != 0 {
			Widen(w, r)
			axpy(a, w, dst)
		}
	}
}

// gramSplitTo is GramTo of s. With low rows it always takes gramPanels:
// the serial kernel sums each output once per k-panel, from zero, and
// adds the panels' sums in order, and gramPanels does the same, each
// panel's sums carried across the runs of columns it widens at a time
// (gramChunk) — so a 1-wide pool runs it inline with the serial
// kernel's bits.
func gramSplitTo(dst *Matrix, s split) {
	if len(s.low) == 0 {
		GramTo(dst, s.top)
		return
	}
	m := s.rows()
	if dst.RowsN != m || dst.ColsN != m {
		panic("mat: gramSplitTo shape mismatch")
	}
	start := time.Now()
	gramPanels(dst, s, m*m*s.top.ColsN/2)
	mirrorLower(dst)
	observeSince(obsKernelGram, start)
}

// A mulSplitTo task, and a split Gram's chunk, copies its panels (or
// runs of columns) of s into an array on its own stack — 128 KB, the
// most a declared variable may have there — so no pool can drop the
// slot and no heap scratch grows with the tasks in flight or with d. The slot starts on a 4 KB boundary inside it, so that the
// panel's rows start on cache lines: loads that straddle them take the
// product half again as long. Up to 4 KB go to that; splitSlot floats
// are left.
const (
	splitStack = 16384
	splitSlot  = splitStack - 512
)

// splitWidth is the panel width, a whole number of cache lines, that
// m rows of a slot hold.
func splitWidth(m int) int { return max(8, splitSlot/m&^7) }

// mulSplitTo computes dst = coef·s for an r×m coef into an r×d dst.
// Every output column depends on that column of s alone, so the product
// goes one column panel at a time: the panel is copied into the task's
// slot and mulRangeTiled writes its columns of dst from there. dst may
// be top's leading rows (the rotation writes the right singular vectors
// over the rows it decomposes): a panel is read in full before its
// columns of dst are written, and no other panel reads them.
func mulSplitTo(dst, coef *Matrix, s split) {
	r, m, d := coef.RowsN, s.rows(), s.top.ColsN
	if coef.ColsN != m || dst.RowsN != r || dst.ColsN != d {
		panic("mat: mulSplitTo shape mismatch")
	}
	if r == 0 || d == 0 {
		return
	}
	start := time.Now()
	w := splitWidth(m)
	panels := (d + w - 1) / w
	work := r * m * d
	if work < parallelThreshold || Workers() == 1 {
		splitPanels(dst, coef, s, 0, panels)
	} else {
		j := grabKernelJob(dst, coef, s.top)
		j.low = s.low
		ParallelFor(panels, minChunk(work, panels), j.splitFn)
		releaseKernelJob(j)
	}
	observeSince(obsKernelMul, start)
}

// splitPanels runs mulSplitTo over column panels [lo, hi).
func splitPanels(dst, coef *Matrix, s split, lo, hi int) {
	m := s.rows()
	w := splitWidth(m)
	var stack [splitStack]float64
	slot := stack[int(-uintptr(unsafe.Pointer(&stack[0]))&4095)/8:]
	if m*w > len(slot) {
		slot = make([]float64, m*w) // thousands of rows: eight columns a panel
	}
	for p := lo; p < hi; p++ {
		k0 := p * w
		k1 := min(k0+w, s.top.ColsN)
		src := s.panel(k0, k1, slot)
		out := dst.colView(k0, k1)
		mulRangeTiled(&out, coef, &src, 0, coef.RowsN)
	}
}
