package mat

// Cache-blocked, register-tiled inner kernels for the dot-structured
// products (Gram, MulABt) and the axpy-structured product (MulTo).
//
// The shapes that matter are the Frequent Directions rotation shapes:
// a short-and-wide 2ℓ×d buffer (ℓ tens to hundreds, d up to millions).
// Two techniques pay for everything here:
//
//   - 2×2 register tiling: computing the four inner products of a
//     2-row × 2-row tile in one pass halves the number of memory loads
//     per multiply-add (4 loads / 4 FMAs instead of 2 loads / 1 FMA)
//     and gives the out-of-order core four independent accumulator
//     chains to hide FMA latency behind.
//   - k-paneling: the reduction dimension is walked in panels small
//     enough that the active row segments stay in L1 while every tile
//     of the output block is updated, instead of streaming full 32KB+
//     rows from L2 for every output element.
//
// All kernels in this file are serial and take a row range; blas.go
// layers the pool on top and says which axis each kernel splits and
// why. GramTo calls gramRange over all rows of one k-panel at a time
// (a column view no wider than panelCols), MulTo calls mulRangeTiled
// over all rows of a column range, and the row ranges that remain
// (MulABtTo, a tall MulTo) start on multiples of four — so the one
// output a range with an odd row count sums through Dot is always the
// one the whole-range call sums that way. The innermost element loops
// (dot2x2, dot1x2, axpy, axpy2, and the QL eigensolver's planeRot) live
// in inner.go, which scripts/check_bce.sh keeps bounds-check-free.
//
// On a CPU with AVX2 the two dot-structured kernels run abtRangePacked
// instead of the 2×2 tile loops: the same panels, the same per-output
// sums in the same order, sixteen outputs per pass instead of four.

const (
	// panelCols is the k-panel width for the dot-structured kernels:
	// 1024 columns = 8KB per row segment, so a 2×2 tile's four active
	// segments occupy 32KB — one L1 data cache.
	panelCols = 1024
	// mulPanelCols is the j-panel width for the axpy-structured MulTo
	// kernel: 2048 columns = 16KB per destination row segment, so a
	// row pair's two accumulator segments stay L1-resident across the
	// whole k loop.
	mulPanelCols = 2048
	// packedRowBlock bounds the rows of a swept against one packed
	// group before the next group is packed: their k-panels (8KB each)
	// are re-read once per group and must still be in L2 when it comes.
	packedRowBlock = 64
)

// leftRows is the left operand of the two dot-structured kernels: the
// rows of a matrix or, with m nil, a list of float32 rows that are
// stored apart from one another — the engine's window ring, projected
// where it lies. The kernels read the left operand one k-panel of one
// block of packedRowBlock rows at a time: load, then seg for each row of
// the block. For a matrix load does nothing and seg is a view of the
// row. A list has load widen the block's k-panel into wide, scratch of
// the caller's (mulABtRange), once per block and panel however many
// groups of b the block meets; the float64 values are the float32 ones
// exactly, so the product is that of the widened matrix, bit for bit.
type leftRows struct {
	m    *Matrix
	list [][]float32

	wide []float64 // list only: the loaded block's panel, from row lo
	lo   int
}

// load makes rows [lo, hi) of panel [k0, k1) readable through seg;
// hi - lo is at most packedRowBlock.
func (l *leftRows) load(lo, hi, k0, k1 int) {
	if l.m != nil {
		return
	}
	l.lo = lo
	w := k1 - k0
	for i := lo; i < hi; i++ {
		Widen(l.wide[(i-lo)*w:(i-lo+1)*w], l.list[i][k0:k1])
	}
}

// seg returns row i's segment [k0, k1); for a list, i must be in the
// block last loaded, and [k0, k1) its panel.
func (l *leftRows) seg(i, k0, k1 int) []float64 {
	if l.m != nil {
		return l.m.Row(i)[k0:k1]
	}
	w := k1 - k0
	return l.wide[(i-l.lo)*w : (i-l.lo+1)*w]
}

// gramRange computes rows [lo, hi) of dst = a*aᵀ for the columns
// j >= row (plus the stray lower element a 2×2 diagonal tile touches);
// GramTo mirrors the strict lower triangle afterwards. The target rows
// of dst are zeroed here.
func gramRange(dst, a *Matrix, lo, hi int) {
	if packedPays(hi-lo, a.RowsN, a.ColsN) {
		abtRangePacked(dst, &leftRows{m: a}, a, lo, hi, true)
		return
	}
	m, d := a.RowsN, a.ColsN
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for k0 := 0; k0 < d; k0 += panelCols {
		k1 := min(k0+panelCols, d)
		i := lo
		for ; i+1 < hi; i += 2 {
			a0 := a.Row(i)[k0:k1]
			a1 := a.Row(i + 1)[k0:k1]
			d0 := dst.Row(i)
			d1 := dst.Row(i + 1)
			j := i
			for ; j+1 < m; j += 2 {
				b0 := a.Row(j)[k0:k1]
				b1 := a.Row(j + 1)[k0:k1]
				c00, c01, c10, c11 := dot2x2(a0, a1, b0, b1)
				d0[j] += c00
				d0[j+1] += c01
				d1[j] += c10
				d1[j+1] += c11
			}
			if j < m {
				c0, c1 := dot1x2(a.Row(j)[k0:k1], a0, a1)
				d0[j] += c0
				d1[j] += c1
			}
		}
		if i < hi {
			a0 := a.Row(i)[k0:k1]
			d0 := dst.Row(i)
			j := i
			for ; j+1 < m; j += 2 {
				c0, c1 := dot1x2(a0, a.Row(j)[k0:k1], a.Row(j + 1)[k0:k1])
				d0[j] += c0
				d0[j+1] += c1
			}
			if j < m {
				d0[j] += Dot(a0, a.Row(j)[k0:k1])
			}
		}
	}
}

// mulABtRangeTiled computes rows [lo, hi) of dst = a*bᵀ with 2×2
// register tiles over k-panels, a block of rows of a after another;
// every row of a is b.ColsN long. The target rows are zeroed here.
// Blocks are an even number of rows, so the pairs are those of one
// sweep over [lo, hi) and only the last block can leave a row unpaired.
func mulABtRangeTiled(dst *Matrix, a *leftRows, b *Matrix, lo, hi int) {
	if packedPays(hi-lo, b.RowsN, b.ColsN) {
		abtRangePacked(dst, a, b, lo, hi, false)
		return
	}
	n, d := b.RowsN, b.ColsN
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for k0 := 0; k0 < d; k0 += panelCols {
		k1 := min(k0+panelCols, d)
		for ib := lo; ib < hi; ib += packedRowBlock {
			ie := min(ib+packedRowBlock, hi)
			a.load(ib, ie, k0, k1)
			i := ib
			for ; i+1 < ie; i += 2 {
				a0 := a.seg(i, k0, k1)
				a1 := a.seg(i+1, k0, k1)
				d0 := dst.Row(i)
				d1 := dst.Row(i + 1)
				j := 0
				for ; j+1 < n; j += 2 {
					b0 := b.Row(j)[k0:k1]
					b1 := b.Row(j + 1)[k0:k1]
					c00, c01, c10, c11 := dot2x2(a0, a1, b0, b1)
					d0[j] += c00
					d0[j+1] += c01
					d1[j] += c10
					d1[j+1] += c11
				}
				if j < n {
					c0, c1 := dot1x2(b.Row(j)[k0:k1], a0, a1)
					d0[j] += c0
					d1[j] += c1
				}
			}
			if i < ie {
				a0 := a.seg(i, k0, k1)
				d0 := dst.Row(i)
				j := 0
				for ; j+1 < n; j += 2 {
					c0, c1 := dot1x2(a0, b.Row(j)[k0:k1], b.Row(j + 1)[k0:k1])
					d0[j] += c0
					d0[j+1] += c1
				}
				if j < n {
					d0[j] += Dot(a0, b.Row(j)[k0:k1])
				}
			}
		}
	}
}

// packedPays reports whether abtRangePacked should take a rows×n
// product over d columns instead of the 2×2 tile loops. Both give the
// same bits, so this is only about time: a group of four columns is
// packed once and then serves ⌈rows/4⌉ tiles, which fewer than three
// rows cannot amortise, and below a few thousand multiply-adds the
// product costs less than clearing the 32KB pack frame.
func packedPays(rows, n, d int) bool {
	return useAVX2 && rows >= 3 && rows*n*d >= 1<<12
}

// abtRangePacked computes rows [lo, hi) of dst = a*bᵀ — or, with tri
// set (b is a), the part of them gramRange owes: every column j >= row —
// bit-identically to the 2×2 tile loops above, sixteen outputs at a
// time. Those loops give each output, per k-panel, one sequential sum
// Σ_k a_i[k]·b_j[k] started at zero and then added into dst; a sum that
// is sequential in k cannot be spread across lanes, so the lanes hold
// different outputs instead. Four rows of b's panel are packed
// interleaved, pack[4k+l] = b_{j0+l}[k], so that one 32-byte load is
// element k of four columns; dotPack4x4AVX2 broadcasts a_i[k] for four
// rows of a against it and keeps one accumulator lane per (i, j).
//
// The one output the tile loops do not sum sequentially is reproduced
// as they form it: a chunk with an odd row count leaves its last row
// unpaired, and when that row's column count is odd too, its last
// column comes from Dot (four interleaved chains) — so here as well.
//
// With tri set the group holding the diagonal starts at the multiple
// of four left of the row: the extra columns land in the chunk's own
// rows of the lower triangle, which GramTo's mirrorLower overwrites.
// The pack buffer is 32KB of stack; nothing is allocated.
func abtRangePacked(dst *Matrix, a *leftRows, b *Matrix, lo, hi int, tri bool) {
	n, d := b.RowsN, b.ColsN
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	// (dotRow, dotCol) is the Dot-summed output, if the chunk has one.
	dotRow, dotCol := -1, -1
	if (hi-lo)%2 == 1 {
		first := 0
		if tri {
			first = hi - 1
		}
		if (n-first)%2 == 1 {
			dotRow, dotCol = hi-1, n-1
		}
	}
	var dotSum float64
	var pack [4 * panelCols]float64
	var c [16]float64
	for k0 := 0; k0 < d; k0 += panelCols {
		k1 := min(k0+panelCols, d)
		p := pack[:4*(k1-k0)]
		for ib := lo; ib < hi; ib += packedRowBlock {
			ie := min(ib+packedRowBlock, hi)
			a.load(ib, ie, k0, k1)
			j0 := 0
			if tri {
				j0 = ib &^ 3
			}
			for ; j0 < n; j0 += 4 {
				// A short last group repeats b's last row; those lanes
				// are computed and dropped.
				pack4AVX2(p,
					b.Row(j0)[k0:k1],
					b.Row(min(j0+1, n-1))[k0:k1],
					b.Row(min(j0+2, n-1))[k0:k1],
					b.Row(min(j0+3, n-1))[k0:k1])
				jn := min(4, n-j0)
				iEnd := ie
				if tri {
					iEnd = min(ie, j0+4)
				}
				for i := ib; i < iEnd; i += 4 {
					// Likewise a short last quad repeats its last row.
					last := iEnd - 1
					dotPack4x4AVX2(&c,
						a.seg(i, k0, k1),
						a.seg(min(i+1, last), k0, k1),
						a.seg(min(i+2, last), k0, k1),
						a.seg(min(i+3, last), k0, k1),
						p)
					for r := 0; r < 4 && i+r < iEnd; r++ {
						out := dst.Row(i + r)[j0 : j0+jn]
						for l, v := range c[4*r : 4*r+jn] {
							out[l] += v
						}
					}
				}
			}
		}
		if dotRow >= 0 {
			// The last block loaded holds the chunk's last row.
			dotSum += Dot(a.seg(dotRow, k0, k1), b.Row(dotCol)[k0:k1])
		}
	}
	if dotRow >= 0 {
		// Summed beside dst, from the same zero, and put in place of the
		// lane sum that landed there.
		dst.Row(dotRow)[dotCol] = dotSum
	}
}

// mulRangeTiled computes rows [lo, hi) of dst = a*b by accumulating
// row pairs of dst over j-panels: the two destination segments stay in
// L1 across the whole k loop while b streams through once per pair.
// The target rows are zeroed here.
func mulRangeTiled(dst, a, b *Matrix, lo, hi int) {
	kn, n := a.ColsN, b.ColsN
	for i := lo; i < hi; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for j0 := 0; j0 < n; j0 += mulPanelCols {
		j1 := min(j0+mulPanelCols, n)
		i := lo
		for ; i+1 < hi; i += 2 {
			a0 := a.Row(i)
			a1 := a.Row(i + 1)
			d0 := dst.Row(i)[j0:j1]
			d1 := dst.Row(i + 1)[j0:j1]
			for k := 0; k < kn; k++ {
				x0 := a0[k]
				x1 := a1[k]
				if x0 == 0 && x1 == 0 {
					continue
				}
				bk := b.Row(k)[j0:j1]
				if x1 == 0 {
					axpy(x0, bk, d0)
				} else if x0 == 0 {
					axpy(x1, bk, d1)
				} else {
					axpy2(x0, x1, bk, d0, d1)
				}
			}
		}
		if i < hi {
			ai := a.Row(i)
			di := dst.Row(i)[j0:j1]
			for k := 0; k < kn; k++ {
				if x := ai[k]; x != 0 {
					axpy(x, b.Row(k)[j0:j1], di)
				}
			}
		}
	}
}

// mirrorLower copies the strict upper triangle of the symmetric dst
// into its strict lower triangle.
func mirrorLower(dst *Matrix) {
	m := dst.RowsN
	for i := 1; i < m; i++ {
		row := dst.Row(i)
		for j := 0; j < i; j++ {
			row[j] = dst.At(j, i)
		}
	}
}
