package mat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"arams/internal/rng"
)

// The promise of blas.go — a pooled dense kernel returns the serial
// kernel's bits at every pool width — and the helpers that compare
// bits, which the vector-kernel tests (simd_amd64_test.go) share.

// withPoolWidth runs fn with the shared kernel pool replaced by one of
// the given width, so the chunked paths are compared at widths the host
// may not have.
func withPoolWidth(width int, fn func()) {
	Workers() // the lazy start must not overwrite the replacement
	savedSize, savedQueue := poolSize, poolQueue
	poolSize, poolQueue = width, newPoolQueue(width)
	defer func() {
		close(poolQueue)
		poolSize, poolQueue = savedSize, savedQueue
	}()
	fn()
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func firstDiff(got, want []float64) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// matDiff returns the first (row, col) at which got and want differ, or
// ok. keep, when non-nil, limits the comparison to elements it accepts.
func matDiff(got, want *Matrix, keep func(i, j int) bool) (i, j int, ok bool) {
	for i := 0; i < want.RowsN; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if (keep == nil || keep(i, j)) && !sameBits(g[j], w[j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

var specialValues = []float64{
	math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -2e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e-200, 1e200,
}

// fill writes Gaussian values into s, about one in five of them
// replaced by a non-finite, signed-zero, denormal or extreme value when
// special is set.
func fill(s []float64, g *rng.RNG, special bool) {
	for i := range s {
		s[i] = g.Norm()
		if special && g.Intn(5) == 0 {
			s[i] = specialValues[g.Intn(len(specialValues))]
		}
	}
}

// view copies src into a matrix whose rows are pad elements further
// apart than they are long and start off elements into the backing
// array: a Stride > ColsN view, no row 32-byte aligned with the next.
func view(src *Matrix, pad, off int) *Matrix {
	stride := src.ColsN + pad
	v := &Matrix{RowsN: src.RowsN, ColsN: src.ColsN, Stride: stride}
	if src.RowsN > 0 {
		v.Data = make([]float64, off+(src.RowsN-1)*stride+src.ColsN)[off:]
	}
	for i := 0; i < src.RowsN; i++ {
		copy(v.Row(i), src.Row(i))
	}
	return v
}

// sprinkleZeros zeroes about a third of m, some of them −0 — and whole
// pairs of rows in places — so that mulRangeTiled takes each of its
// skip branches.
func sprinkleZeros(m *Matrix, g *rng.RNG) {
	for i := 0; i < m.RowsN; i++ {
		row := m.Row(i)
		for j := range row {
			switch g.Intn(6) {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			}
		}
	}
}

// TestPooledKernelsGiveSerialBits holds GramTo, MulTo (wide and tall),
// MulABtTo and SVDGramTo, at pool widths the host may not have, to the
// range kernels called once over the whole range (SVDGramTo: to itself
// on a 1-wide pool, which is that). The shapes put odd row counts
// against odd column counts, a short last k-panel, a single-panel Gram,
// and the projection windows (m > 100: the two row-split products
// alone) on which a row chunk of odd length once moved the Dot-summed
// element.
func TestPooledKernelsGiveSerialBits(t *testing.T) {
	shapes := []struct{ m, d, n int }{
		{50, 4096, 25}, {50, 16384, 25}, {51, 4097, 12}, {37, 5000, 11}, {26, 3000, 12},
		{100, 1500, 25}, {7, 33, 3}, {501, 4096, 11}, {512, 4096, 11},
	}
	if testing.Short() {
		shapes = shapes[4:7]
	}
	g := rng.New(510)
	for _, sh := range shapes {
		for c := 0; c < 4; c++ {
			strided, special := c&1 == 1, c&2 == 2
			if special && sh.m*sh.d > 1<<17 {
				continue // denormals cost the multiplier a microcode assist each
			}
			a, b, coef := New(sh.m, sh.d), New(sh.n, sh.d), New(sh.n, sh.m)
			fill(a.Data, g, special)
			fill(b.Data, g, special)
			fill(coef.Data, g, false)
			sprinkleZeros(coef, g)
			newDst := New
			if strided {
				a, b, coef = view(a, 5, 3), view(b, 1, 1), view(coef, 3, 2)
				newDst = func(r, c int) *Matrix { return view(New(r, c), 7, 1) }
			}
			bt := b.T()
			svd := func(dst *Matrix) []float64 { return SVDGramTo(a, nil, dst) }
			products := []struct {
				name           string
				rows, cols     int
				pooled, serial func(dst *Matrix) []float64
			}{
				{"MulABtTo", sh.m, sh.n,
					func(dst *Matrix) []float64 { MulABtTo(dst, a, b); return nil },
					func(dst *Matrix) []float64 { mulABtRangeTiled(dst, &leftRows{m: a}, b, 0, sh.m); return nil }},
				{"MulTo (tall)", sh.m, sh.n,
					func(dst *Matrix) []float64 { MulTo(dst, a, bt); return nil },
					func(dst *Matrix) []float64 { mulRangeTiled(dst, a, bt, 0, sh.m); return nil }},
				{"GramTo", sh.m, sh.m,
					func(dst *Matrix) []float64 { GramTo(dst, a); return nil },
					func(dst *Matrix) []float64 { gramRange(dst, a, 0, sh.m); mirrorLower(dst); return nil }},
				{"MulTo (wide)", sh.n, sh.d,
					func(dst *Matrix) []float64 { MulTo(dst, coef, a); return nil },
					func(dst *Matrix) []float64 { mulRangeTiled(dst, coef, a, 0, sh.n); return nil }},
				{"SVDGramTo", sh.n, sh.d, svd, svd}, // "serial" runs on a 1-wide pool
			}
			if sh.m > 100 {
				products = products[:2]
			}
			for _, goLoops := range []bool{false, true} {
				if !goLoops && !useAVX2 {
					continue // the Go loops are the only set
				}
				for _, p := range products {
					want, got := newDst(p.rows, p.cols), newDst(p.rows, p.cols)
					run := func() {
						var wantSigma, sigma []float64
						withPoolWidth(1, func() { wantSigma = p.serial(want) })
						for _, width := range []int{1, 2, 3, 4, 7} {
							withPoolWidth(width, func() { sigma = p.pooled(got) })
							if _, _, ok := matDiff(got, want, nil); !ok || firstDiff(sigma, wantSigma) >= 0 {
								t.Errorf("%s %dx%d·%d strided=%v special=%v go=%v width=%d: differs from the serial kernel's",
									p.name, sh.m, sh.d, sh.n, strided, special, goLoops, width)
							}
						}
					}
					if goLoops {
						onGoKernels(run)
					} else {
						run()
					}
				}
			}
		}
	}
}

// TestInPlaceBackMultiplyGivesMulToBits holds the rotation's two steps
// done over its float64 rows — mulSplitTo into the leading r of them,
// then ScaleTo of each row onto itself — to the same two done through a
// separate matrix from the widened operand (MulTo, then ScaleTo from
// it), and SVDGramInPlace to SVDGramTo of the widened operand, bit for
// bit, at pool widths 1, 2 and 4 on both kernel sets. The widths put d
// below one slot panel, at and either side of a k-panel, and at
// diff_sharded's detector, so panels end short; the row counts are one
// and ℓ (odd, so one row goes unpaired) over ℓ float64 rows and ℓ
// float32 ones, and the whole buffer over float64 rows alone. The rows
// below r, and the float32 rows, must come through untouched, also
// through a strided view.
func TestInPlaceBackMultiplyGivesMulToBits(t *testing.T) {
	const ell, m = 25, 50
	ds := []int{7, 1023, 1024, 1025, 4096, 16384}
	if testing.Short() {
		ds = ds[:4]
	}
	g := rng.New(529)
	for _, d := range ds {
		a := New(m, d)
		fill(a.Data, g, false)
		// A buffer with a spectrum, for the decomposition.
		buffer := fdShapedBuffer(ell, d, g).Rows(0, m)
		for _, c := range []struct{ top, r int }{{ell, 1}, {ell, ell}, {m, m}} {
			coef := New(c.r, m)
			fill(coef.Data, g, false)
			sprinkleZeros(coef, g)
			scales := make([]float64, c.r)
			fill(scales, g, false)
			top, low := splitOf(a, c.top)
			wide := widened(top, low)
			for _, strided := range []bool{false, true} {
				pad, off := 0, 0
				if strided {
					pad, off = 3, 1
				}
				want := New(c.r, d)
				for _, goLoops := range []bool{false, true} {
					if !goLoops && !useAVX2 {
						continue // the Go loops are the only set
					}
					run := func() {
						for _, width := range []int{1, 2, 4} {
							got := view(top, pad, off)
							gotLow := cloneRows32(low)
							var sigma, wantSigma []float64
							withPoolWidth(width, func() {
								MulTo(want, coef, wide)
								for i := 0; i < c.r; i++ {
									ScaleTo(want.Row(i), scales[i], want.Row(i))
								}
								mulSplitTo(got.Rows(0, c.r), coef, split{got, gotLow})
								for i := 0; i < c.r; i++ {
									ScaleTo(got.Row(i), scales[i], got.Row(i))
								}
							})
							name := fmt.Sprintf("d=%d top=%d r=%d strided=%v go=%v width=%d", d, c.top, c.r, strided, goLoops, width)
							if i, j, ok := matDiff(got.Rows(0, c.r), want, nil); !ok {
								t.Errorf("%s: (%d,%d) differs from MulTo then ScaleTo", name, i, j)
							}
							if i, j, ok := matDiff(got, top, func(i, _ int) bool { return i >= c.r }); !ok {
								t.Errorf("%s: (%d,%d), below the product, changed", name, i, j)
							}
							if !slices.EqualFunc(gotLow, low, slices.Equal[[]float32]) {
								t.Errorf("%s: the float32 rows changed", name)
							}
							if strided {
								continue
							}
							bufTop, bufLow := splitOf(buffer, c.top)
							vt := New(c.r, d)
							withPoolWidth(width, func() {
								wantSigma = SVDGramTo(widened(bufTop, bufLow), nil, vt)
								sigma = SVDGramInPlace(bufTop, bufLow, nil, c.r)
							})
							if _, _, ok := matDiff(bufTop.Rows(0, c.r), vt, nil); !ok || firstDiff(sigma, wantSigma) >= 0 {
								t.Errorf("%s: SVDGramInPlace differs from SVDGramTo", name)
							}
						}
					}
					if goLoops {
						onGoKernels(run)
					} else {
						run()
					}
				}
			}
		}
	}
	// More rows than a stack slot holds eight columns of.
	const many = splitSlot/8 + 1
	a, coef := New(many, 9), New(many, many)
	fill(a.Data, g, false)
	fill(coef.Data, g, false)
	want, got := New(many, 9), a.Clone()
	MulTo(want, coef, a)
	mulSplitTo(got, coef, split{top: got})
	if i, j, ok := matDiff(got, want, nil); !ok {
		t.Errorf("%d rows: (%d,%d) differs from MulTo", many, i, j)
	}
}

// TestRowListProductGivesMatrixBits holds MulRowsABt, over float32 rows
// that are each their own allocation (the window ring's vectors), to
// MulABtTo of the float64 matrix they widen to: the two share one kernel
// body, and a list's rows are widened exactly, so the latent a quick
// snapshot projects in place is the one a full snapshot projects from
// the widened copy. The window sizes put one, two and three rows (below
// the packed kernel's floor), odd counts — against the odd basis row
// count, the Dot-summed output — and a whole window against an odd, an
// even and a single basis row and a d that is short, one panel, whole
// panels and panels plus a remainder; every product runs at pool widths
// 1, 2 and 4 and, where there are two kernel sets, on both.
func TestRowListProductGivesMatrixBits(t *testing.T) {
	ns, ks, ds := []int{1, 2, 3, 5, 17, 127, 512}, []int{1, 11, 12}, []int{7, 1024, 4096, 4100}
	if testing.Short() {
		ns, ds = ns[:6], ds[:3]
	}
	g := rng.New(27)
	for _, d := range ds {
		rows := make([][]float32, ns[len(ns)-1])
		x := New(len(rows), d)
		for i := range rows {
			wide := make([]float64, d)
			fill(wide, g, false)
			rows[i] = make([]float32, d)
			for j, v := range wide {
				rows[i][j] = float32(v)
			}
			Widen(x.Row(i), rows[i])
		}
		for _, k := range ks {
			b := New(k, d)
			fill(b.Data, g, false)
			for _, n := range ns {
				want := New(n, k)
				for _, goLoops := range []bool{false, true} {
					if !goLoops && !useAVX2 {
						continue // the Go loops are the only set
					}
					run := func() {
						for _, width := range []int{1, 2, 4} {
							var got *Matrix
							withPoolWidth(width, func() {
								MulABtTo(want, x.Rows(0, n), b)
								got = MulRowsABt(rows[:n], b)
							})
							if i, j, ok := matDiff(got, want, nil); !ok {
								t.Errorf("n=%d k=%d d=%d go=%v width=%d: (%d,%d) differs from MulABtTo of the widened rows",
									n, k, d, goLoops, width, i, j)
							}
						}
					}
					if goLoops {
						onGoKernels(run)
					} else {
						run()
					}
				}
			}
		}
	}
}
