package mat

import (
	"fmt"
	"testing"

	"arams/internal/rng"
)

// splitOf cuts a into a split at row t: a copy of its first t rows, and
// the rest rounded to float32, each row an array of its own.
func splitOf(a *Matrix, t int) (*Matrix, [][]float32) {
	top := a.Rows(0, t).Clone()
	var low [][]float32
	for i := t; i < a.RowsN; i++ {
		r := make([]float32, a.ColsN)
		for j, v := range a.Row(i) {
			r[j] = float32(v)
		}
		low = append(low, r)
	}
	return top, low
}

// cloneRows32 is a deep copy of float32 rows.
func cloneRows32(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = append([]float32(nil), r...)
	}
	return out
}

// widened is the float64 matrix a split's rows widen to.
func widened(top *Matrix, low [][]float32) *Matrix {
	w := New(top.RowsN+len(low), top.ColsN)
	for i := 0; i < top.RowsN; i++ {
		copy(w.Row(i), top.Row(i))
	}
	for i, r := range low {
		Widen(w.Row(top.RowsN+i), r)
	}
	return w
}

// TestSplitKernelsGiveWidenedBits holds the four kernels over a
// float64 block stacked on a float32 one — the Gram, the back-multiply,
// the decomposition a basis read runs (SVDGramSplitTo) and the
// transposed product the probe heuristic runs (MulTVecSplitTo, on a
// coefficient row with zeros in it) — to the float64 kernels on the
// matrix the rows widen to, bit for bit, at pool widths 1, 2, 4 and 8 and
// on both kernel sets. The shapes are the rotation's (ℓ rows over ℓ, the
// Gram's k-panels ending short or not), an odd row count on either
// side, one float64 row under many float32 ones, and a d narrower than a
// panel; the special-value case puts signed zeros, denormals and
// non-finite values into both blocks.
func TestSplitKernelsGiveWidenedBits(t *testing.T) {
	shapes := []struct{ top, low, d, r int }{
		{25, 25, 4096, 25}, {25, 25, 16384, 25}, {25, 24, 4097, 13}, {12, 13, 1025, 12},
		{1, 30, 2048, 1}, {7, 5, 33, 3},
	}
	if testing.Short() {
		shapes = shapes[2:]
	}
	g := rng.New(530)
	for _, sh := range shapes {
		for _, special := range []bool{false, true} {
			if special && (sh.top+sh.low)*sh.d > 1<<17 {
				continue // denormals cost the multiplier a microcode assist each
			}
			a := New(sh.top+sh.low, sh.d)
			fill(a.Data, g, special)
			if !special {
				// A spectrum for the decomposition to resolve.
				a = fdShapedBuffer((sh.top+sh.low+1)/2, sh.d, g).Rows(0, sh.top+sh.low)
			}
			top, low := splitOf(a, sh.top)
			wide := widened(top, low)
			m := wide.RowsN
			coef := New(sh.r, m)
			fill(coef.Data, g, false)
			sprinkleZeros(coef, g)
			s := split{top, low}
			kernels := []struct {
				name       string
				rows, cols int
				split      func(dst *Matrix) []float64
				float64s   func(dst *Matrix) []float64
			}{
				{"gram", m, m,
					func(dst *Matrix) []float64 { gramSplitTo(dst, s); return nil },
					func(dst *Matrix) []float64 { GramTo(dst, wide); return nil }},
				{"back-multiply", sh.r, sh.d,
					func(dst *Matrix) []float64 { mulSplitTo(dst, coef, s); return nil },
					func(dst *Matrix) []float64 { MulTo(dst, coef, wide); return nil }},
				{"SVDGramSplitTo", sh.r, sh.d,
					func(dst *Matrix) []float64 { return SVDGramSplitTo(top, low, nil, dst) },
					func(dst *Matrix) []float64 { return SVDGramTo(wide, nil, dst) }},
				{"MulTVecSplitTo", 1, sh.d,
					func(dst *Matrix) []float64 {
						MulTVecSplitTo(dst.Data, top, low, coef.Row(0), make([]float64, sh.d))
						return nil
					},
					func(dst *Matrix) []float64 { copy(dst.Data, MulTVec(wide, coef.Row(0))); return nil }},
			}
			for _, goLoops := range []bool{false, true} {
				if !goLoops && !useAVX2 {
					continue // the Go loops are the only set
				}
				run := func() {
					for _, k := range kernels {
						want, got := New(k.rows, k.cols), New(k.rows, k.cols)
						var wantSigma, sigma []float64
						withPoolWidth(1, func() { wantSigma = k.float64s(want) })
						for _, width := range []int{1, 2, 4, 8} {
							withPoolWidth(width, func() { sigma = k.split(got) })
							name := fmt.Sprintf("%s %d+%d×%d special=%v go=%v width=%d", k.name, sh.top, sh.low, sh.d, special, goLoops, width)
							if i, j, ok := matDiff(got, want, nil); !ok {
								t.Errorf("%s: (%d,%d) differs from the float64 kernel's", name, i, j)
							} else if firstDiff(sigma, wantSigma) >= 0 {
								t.Errorf("%s: singular values differ from the float64 kernel's", name)
							}
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

// TestSplitRejectsPartialRows: a float32 row that is not as wide as the
// float64 block is a caller's bug, caught before any kernel reads past
// a row.
func TestSplitRejectsPartialRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SVDGramSplitTo accepted a float32 row of 3 elements under rows of 4")
		}
	}()
	SVDGramSplitTo(New(2, 4), [][]float32{make([]float32, 4), make([]float32, 3)}, nil, New(1, 4))
}
