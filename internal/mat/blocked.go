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
// All kernels in this file are serial; parallelism is layered on top
// by ParallelFor over disjoint output row ranges (see blas.go). The
// innermost element loops (dot2x2, dot1x2, axpy, axpy2, and the Jacobi
// eigensolver's planeRot) live in inner.go, which scripts/check_bce.sh
// keeps bounds-check-free.

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
)

// gramRange computes rows [lo, hi) of dst = a*aᵀ for the columns
// j >= row (plus the stray lower element a 2×2 diagonal tile touches);
// GramTo mirrors the strict lower triangle afterwards. The target rows
// of dst are zeroed here, so disjoint ranges compose under ParallelFor.
func gramRange(dst, a *Matrix, lo, hi int) {
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
// register tiles over k-panels. The target rows are zeroed here.
func mulABtRangeTiled(dst, a, b *Matrix, lo, hi int) {
	n, d := b.RowsN, a.ColsN
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
		if i < hi {
			a0 := a.Row(i)[k0:k1]
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
