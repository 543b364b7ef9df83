package mat

import (
	"time"
	"unsafe"
)

// A Frequent Directions sketch keeps the rows its last rotation wrote in
// float64 and the rows appended since in float32 (internal/sketch). The
// rotation and the basis read decompose the two blocks stacked, with the
// arithmetic of the float64 matrix they widen to: split is that operand,
// and the kernels in this file read it one column panel at a time, its
// float32 rows widened into scratch a panel holds, the way MulRowsABt
// widens the window — never a d-long float64 copy of the float32 block.
// Widening is exact and a column cut changes no output's sum (blas.go's
// header), so every result is the float64 kernel's on the widened
// matrix, bit for bit and at every pool width.

// split is the m×d matrix whose rows are top's and then low's: low holds
// m − top.RowsN rows of top.ColsN float32 elements each, row-major. A
// split with no low rows is top.
type split struct {
	top *Matrix
	low []float32
}

// newSplit checks that low holds whole rows of top's width.
func newSplit(top *Matrix, low []float32) split {
	if len(low) > 0 && (top.ColsN == 0 || len(low)%top.ColsN != 0) {
		panic("mat: float32 block does not hold whole rows of the float64 block's width")
	}
	return split{top: top, low: low}
}

// rows is m, the row count of the stacked matrix.
func (s split) rows() int {
	if len(s.low) == 0 {
		return s.top.RowsN
	}
	return s.top.RowsN + len(s.low)/s.top.ColsN
}

// panel returns columns [k0, k1) of every row of s as an m×(k1−k0)
// matrix. With buf nil (s must have no low rows) it is a view of top;
// otherwise it is a copy in buf, which must hold m·(k1−k0) floats: top's
// segments copied, low's widened, both exactly.
func (s split) panel(k0, k1 int, buf []float64) Matrix {
	if buf == nil {
		return s.top.colView(k0, k1)
	}
	m, w, d := s.rows(), k1-k0, s.top.ColsN
	p := Matrix{RowsN: m, ColsN: w, Stride: w, Data: buf[:m*w]}
	for i := 0; i < s.top.RowsN; i++ {
		copy(p.Row(i), s.top.Row(i)[k0:k1])
	}
	for i, off := s.top.RowsN, 0; i < m; i, off = i+1, off+d {
		Widen(p.Row(i), s.low[off+k0:off+k1])
	}
	return p
}

// gramSplitTo is GramTo of s. With low rows it always takes gramPanels:
// the serial kernel sums each output once per k-panel, from zero, and
// adds the panels' sums in order, and gramPanels does the same over
// panels it widens one at a time — so a 1-wide pool runs it inline with
// the serial kernel's bits.
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

// A mulSplitTo task copies its panels of s into an array on its own
// stack — 128 KB, the most a declared variable may have there — so no
// pool can drop the slot and scratch is bounded by the tasks in flight,
// never by d. The slot starts on a 4 KB boundary inside it, so that the
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
