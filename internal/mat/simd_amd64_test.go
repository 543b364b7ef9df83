//go:build !purego

package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"arams/internal/rng"
)

// The vector kernels held to the Go ones, bit for bit. Every test here
// runs the same call twice — once as the process would (AVX2), once
// with useAVX2 cleared so the Go loops run — and compares
// math.Float64bits of everything the call could have written. The one
// latitude is a NaN's payload: which operand's payload a NaN result
// carries depends on how the compiler ordered a commutative
// instruction, which Go does not specify, so a NaN must meet a NaN and
// nothing more.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("this CPU has no AVX2: the Go kernels are the only ones running")
	}
}

// onGoKernels runs fn with the vector kernels switched off and puts
// the switch back, whatever fn does.
func onGoKernels(fn func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	fn()
}

// forEachKernelSet runs fn as a "go" sub-benchmark on the Go inner
// loops and, where the CPU has them, as an "avx2" one on the vector
// loops.
func forEachKernelSet(b *testing.B, fn func(b *testing.B)) {
	b.Run("go", func(b *testing.B) { onGoKernels(func() { fn(b) }) })
	if useAVX2 {
		b.Run("avx2", fn)
	}
}

func scalar(g *rng.RNG, special bool) float64 {
	var v [1]float64
	fill(v[:], g, special)
	return v[0]
}

// padded returns a backing array with off elements before and five
// after an n-element view of it, all filled, so a kernel writing outside
// its operand changes something the comparison sees.
func padded(g *rng.RNG, n, off int, special bool) (back, view []float64) {
	back = make([]float64, off+n+5)
	fill(back, g, special)
	return back, back[off : off+n : off+n]
}

// kernelLengths covers every remainder of every unroll step (16, 8, 4,
// 2, 1) several times over, and the k-panel width and its neighbours.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1023, 1024, 1025, 4097)
}

// elementKernels is every dispatched inner loop as a function of two
// scalars and three slices; each uses what it needs and returns its
// scalar result, if it has one.
var elementKernels = []struct {
	name string
	run  func(c0, c1 float64, x, y, z []float64) float64
}{
	{"axpy", func(c0, _ float64, x, y, _ []float64) float64 { axpy(c0, x, y); return 0 }},
	{"axpy2", func(c0, c1 float64, x, y, z []float64) float64 { axpy2(c0, c1, x, y, z); return 0 }},
	{"scale", func(c0, _ float64, x, y, _ []float64) float64 { scale(y, c0, x); return 0 }},
	{"dotKernel", func(_, _ float64, x, y, _ []float64) float64 { return dotKernel(x, y) }},
	{"planeRot", func(c0, c1 float64, x, y, _ []float64) float64 { planeRot(c0, c1, x, y); return 0 }},
}

// checkElementKernel runs kernel k on operands of lengths n[0..2] set
// at offsets off[0..2] into their backing arrays, on both paths, and
// describes the first difference ("" if none).
func checkElementKernel(k int, seed uint64, n, off [3]int, special bool) string {
	g := rng.New(seed)
	var back, view, backGo, viewGo [3][]float64
	for i := range back {
		back[i], view[i] = padded(g, n[i], off[i], special)
		backGo[i] = append([]float64(nil), back[i]...)
		viewGo[i] = backGo[i][off[i] : off[i]+n[i] : off[i]+n[i]]
	}
	c0, c1 := scalar(g, special), scalar(g, special)
	kern := elementKernels[k]
	got := kern.run(c0, c1, view[0], view[1], view[2])
	var want float64
	onGoKernels(func() { want = kern.run(c0, c1, viewGo[0], viewGo[1], viewGo[2]) })
	if !sameBits(got, want) {
		return fmt.Sprintf("%s n=%v off=%v: result %x, Go kernel %x", kern.name, n, off, math.Float64bits(got), math.Float64bits(want))
	}
	for i := range back {
		if at := firstDiff(back[i], backGo[i]); at >= 0 {
			return fmt.Sprintf("%s n=%v off=%v: operand %d differs at backing index %d (view starts at %d): %x, Go kernel %x",
				kern.name, n, off, i, at, off[i], math.Float64bits(back[i][at]), math.Float64bits(backGo[i][at]))
		}
	}
	return ""
}

func TestElementKernelsBitIdentical(t *testing.T) {
	requireAVX2(t)
	for k, kern := range elementKernels {
		k := k
		t.Run(kern.name, func(t *testing.T) {
			seed := uint64(1000 * (k + 1))
			for _, n := range kernelLengths() {
				for ox := 0; ox < 4; ox++ {
					for oy := 0; oy < 4; oy++ {
						off := [3]int{ox, oy, (ox + 2*oy + 1) % 4}
						for _, special := range []bool{false, true} {
							seed++
							if msg := checkElementKernel(k, seed, [3]int{n, n, n}, off, special); msg != "" {
								t.Fatal(msg)
							}
						}
					}
				}
				// Unequal operands: the common prefix, whichever is short.
				for _, ns := range [][3]int{{n + 3, n, n + 1}, {n, n + 5, n + 9}, {n + 2, n + 1, n}} {
					seed++
					if msg := checkElementKernel(k, seed, ns, [3]int{1, 2, 3}, true); msg != "" {
						t.Fatal(msg)
					}
				}
			}
		})
	}
}

func TestElementKernelsQuick(t *testing.T) {
	requireAVX2(t)
	for k, kern := range elementKernels {
		k := k
		t.Run(kern.name, func(t *testing.T) {
			f := func(seed uint64, nx, ny, nz uint16, offs uint8, special bool) bool {
				n := [3]int{int(nx % 1100), int(ny % 1100), int(nz % 1100)}
				off := [3]int{int(offs & 3), int(offs >> 2 & 3), int(offs >> 4 & 3)}
				msg := checkElementKernel(k, seed, n, off, special)
				if msg != "" {
					t.Log(msg)
				}
				return msg == ""
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func FuzzElementKernels(f *testing.F) {
	for k := range elementKernels {
		f.Add(uint8(k), uint64(k), uint16(67), uint16(64), uint16(1025), uint8(0x1b), true)
	}
	f.Fuzz(func(t *testing.T, k uint8, seed uint64, nx, ny, nz uint16, offs uint8, special bool) {
		requireAVX2(t)
		n := [3]int{int(nx % 5000), int(ny % 5000), int(nz % 5000)}
		off := [3]int{int(offs & 3), int(offs >> 2 & 3), int(offs >> 4 & 3)}
		if msg := checkElementKernel(int(k)%len(elementKernels), seed, n, off, special); msg != "" {
			t.Fatal(msg)
		}
	})
}

// checkPackedTile packs four rows and multiplies four others against
// the pack, continuing sixteen random sums, and compares the outputs
// with the sums dot2x2 continues from the same values — the oracle is
// the Go tile kernel itself.
func checkPackedTile(seed uint64, n int, off [3]int, special bool) string {
	g := rng.New(seed)
	var a, b [4][]float64
	for r := range a {
		_, a[r] = padded(g, n, off[r%3], special)
		_, b[r] = padded(g, n, off[(r+1)%3], special)
	}
	packBack, pack := padded(g, 4*n, off[2], false)
	packPad := append([]float64(nil), packBack...)
	pack4AVX2(pack, b[0], b[1], b[2], b[3])
	for k := 0; k < n; k++ {
		for l := 0; l < 4; l++ {
			// A move, not arithmetic: payloads included.
			if math.Float64bits(pack[4*k+l]) != math.Float64bits(b[l][k]) {
				return fmt.Sprintf("pack4 n=%d: pack[4·%d+%d] is not row %d's element", n, k, l, l)
			}
		}
	}
	copy(packPad[off[2]:], pack)
	if at := firstDiff(packBack, packPad); at >= 0 {
		return fmt.Sprintf("pack4 n=%d: wrote outside the pack at backing index %d", n, at)
	}
	// Both kernels continue the sums they are handed.
	var start [16]float64
	fill(start[:], g, false)
	c := start
	dotPack4x4AVX2(&c, a[0], a[1], a[2], a[3], pack)
	for r := 0; r < 4; r += 2 {
		for l := 0; l < 4; l += 2 {
			c00, c01, c10, c11 := dot2x2(a[r], a[r+1], b[l], b[l+1],
				start[4*r+l], start[4*r+l+1], start[4*(r+1)+l], start[4*(r+1)+l+1])
			for _, e := range []struct {
				r, l int
				want float64
			}{{r, l, c00}, {r, l + 1, c01}, {r + 1, l, c10}, {r + 1, l + 1, c11}} {
				if got := c[4*e.r+e.l]; !sameBits(got, e.want) {
					return fmt.Sprintf("dotPack4x4 n=%d off=%v: c[%d][%d] = %x, dot2x2 %x",
						n, off, e.r, e.l, math.Float64bits(got), math.Float64bits(e.want))
				}
			}
		}
	}
	return ""
}

func TestPackedTileBitIdentical(t *testing.T) {
	requireAVX2(t)
	seed := uint64(9000)
	for _, n := range kernelLengths() {
		for o := 0; o < 16; o++ {
			for _, special := range []bool{false, true} {
				seed++
				if msg := checkPackedTile(seed, n, [3]int{o & 3, o >> 2, (o + 1) & 3}, special); msg != "" {
					t.Fatal(msg)
				}
			}
		}
	}
}

func TestPackedTileQuick(t *testing.T) {
	requireAVX2(t)
	f := func(seed uint64, n uint16, offs uint8, special bool) bool {
		msg := checkPackedTile(seed, int(n%1100), [3]int{int(offs & 3), int(offs >> 2 & 3), int(offs >> 4 & 3)}, special)
		if msg != "" {
			t.Log(msg)
		}
		return msg == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedTileShortOperands checks the count the assembly derives
// for itself: the shortest row, or a quarter of the pack, whichever is
// less — and nothing past it read into the result or written.
func TestPackedTileShortOperands(t *testing.T) {
	requireAVX2(t)
	g := rng.New(77)
	row := func(n int) []float64 { _, v := padded(g, n, 1, false); return v }
	for _, lens := range [][5]int{{9, 12, 30, 10, 64}, {20, 20, 20, 20, 4 * 7}, {5, 5, 5, 5, 4*5 + 3}, {0, 3, 3, 3, 12}} {
		n := lens[0]
		for _, v := range lens[1:4] {
			n = min(n, v)
		}
		n = min(n, lens[4]/4)
		var r [4][]float64
		for i := range r {
			r[i] = row(lens[i])
		}
		back, pack := padded(g, lens[4], 2, false)
		before := append([]float64(nil), back...)
		pack4AVX2(pack, r[0], r[1], r[2], r[3])
		copy(before[2:2+4*n], pack[:4*n])
		if at := firstDiff(back, before); at >= 0 {
			t.Fatalf("pack4 lens=%v: wrote past 4·%d elements (backing index %d)", lens, n, at)
		}
		var c, want [16]float64
		dotPack4x4AVX2(&c, r[0], r[1], r[2], r[3], pack)
		for i := 0; i < 4; i++ {
			for l := 0; l < 4; l++ {
				for k := 0; k < n; k++ {
					want[4*i+l] += r[i][k] * pack[4*k+l]
				}
			}
		}
		if at := firstDiff(c[:], want[:]); at >= 0 {
			t.Fatalf("dotPack4x4 lens=%v: output %d sums other than %d terms", lens, at, n)
		}
	}
}

// TestDenseKernelsBitIdentical compares whole products and the whole
// rotation decomposition on the benchmark's shapes, at pool widths 1
// and 2, on compact and on strided operands.
func TestDenseKernelsBitIdentical(t *testing.T) {
	requireAVX2(t)
	shapes := []struct{ m, d, n int }{
		{50, 4096, 25}, {50, 16384, 25}, {512, 4096, 12}, {51, 1000, 26}, {7, 33, 3},
	}
	if testing.Short() {
		shapes = shapes[3:]
	}
	g := rng.New(500)
	for _, sh := range shapes {
		for _, strided := range []bool{false, true} {
			for _, special := range []bool{false, true} {
				if sh.m*sh.d > 1<<18 && strided != special {
					continue // the large shapes: compact and finite, strided and not
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
				for _, width := range []int{1, 2} {
					name := fmt.Sprintf("%dx%d·%d strided=%v special=%v width=%d", sh.m, sh.d, sh.n, strided, special, width)
					// run evaluates every kernel once on the current path.
					run := func() (out []*Matrix, vecs [][]float64) {
						abt := newDst(sh.m, sh.n)
						MulABtTo(abt, a, b)
						if sh.m > 64 {
							// The projection shape: a window of rows
							// against a short basis, nothing else.
							return []*Matrix{abt}, nil
						}
						gram, mul := newDst(sh.m, sh.m), newDst(sh.n, sh.d)
						GramTo(gram, a)
						MulTo(mul, coef, a)
						out = []*Matrix{abt, gram, mul}
						// The decompositions are compared on finite
						// input only.
						if !special {
							vt := newDst(sh.n, sh.d)
							sigma := SVDGramTo(a, nil, vt)
							vals, v := EigSym(gram)
							out = append(out, vt, v)
							vecs = [][]float64{sigma, vals}
						}
						return out, vecs
					}
					withPoolWidth(width, func() {
						got, gotVecs := run()
						var want []*Matrix
						var wantVecs [][]float64
						onGoKernels(func() { want, wantVecs = run() })
						for k := range want {
							if i, j, ok := matDiff(got[k], want[k], nil); !ok {
								t.Errorf("%s: result %d differs from the Go kernels' at (%d, %d)", name, k, i, j)
							}
						}
						for k := range wantVecs {
							if at := firstDiff(gotVecs[k], wantVecs[k]); at >= 0 {
								t.Errorf("%s: spectrum %d differs from the Go kernels' at %d", name, k, at)
							}
						}
					})
				}
			}
		}
	}
}

// TestEigSymKernelSetsBitIdentical runs the whole eigensolver — the
// Householder dots and axpys, the QL plane rotations — on both kernel
// sets, on compact and on strided (Stride > ColsN) storage.
func TestEigSymKernelSetsBitIdentical(t *testing.T) {
	requireAVX2(t)
	for _, n := range []int{2, 7, 24, 50, 97, 128} {
		gram := Gram(RandGaussian(n, n+20, rng.New(501)))
		for _, strided := range []bool{false, true} {
			run := func() (vals []float64, vt *Matrix) {
				w, vt := gram.Clone(), New(n, n)
				if strided {
					w, vt = view(w, 3, 2), view(vt, 1, 5)
				}
				vals = make([]float64, n)
				eigSymInto(w, vt, vals, make([]float64, n))
				return vals, vt
			}
			vals, vt := run()
			var wantVals []float64
			var wantVt *Matrix
			onGoKernels(func() { wantVals, wantVt = run() })
			if at := firstDiff(vals, wantVals); at >= 0 {
				t.Errorf("n=%d strided=%v: eigenvalue %d differs from the Go kernels'", n, strided, at)
			}
			if i, j, ok := matDiff(vt, wantVt, nil); !ok {
				t.Errorf("n=%d strided=%v: Vᵀ differs from the Go kernels' at (%d, %d)", n, strided, i, j)
			}
		}
	}
}

// TestEigSymSameBitsAtEveryPoolWidth: the solver is serial at every
// order, so the pool's width — which chose between two sweep orderings
// from n = 96 up while the solver was Jacobi — cannot reach its bits.
func TestEigSymSameBitsAtEveryPoolWidth(t *testing.T) {
	for _, n := range []int{50, 97, 128} {
		gram := Gram(RandGaussian(n, n+20, rng.New(503)))
		var vals [2][]float64
		var v [2]*Matrix
		for k, width := range []int{1, 2} {
			withPoolWidth(width, func() { vals[k], v[k] = EigSym(gram) })
		}
		if at := firstDiff(vals[1], vals[0]); at >= 0 {
			t.Errorf("n=%d: eigenvalue %d differs between pool widths 1 and 2", n, at)
		}
		if i, j, ok := matDiff(v[1], v[0], nil); !ok {
			t.Errorf("n=%d: eigenvectors differ between pool widths 1 and 2 at (%d, %d)", n, i, j)
		}
	}
}

// TestRangeKernelsOddChunks calls the three row-range kernels the way
// a pool of any width might: every [lo, hi) of a small product, and
// the odd ones of a rotation-sized one. An odd chunk is where the tile
// loops leave a row unpaired and sum one output through Dot.
func TestRangeKernelsOddChunks(t *testing.T) {
	requireAVX2(t)
	g := rng.New(502)
	for _, sh := range []struct {
		m, d, n int
		chunks  [][2]int
	}{
		{13, 1500, 7, nil},
		{9, 300, 4, nil},
		{6, 2100, 1, nil},
		{50, 1030, 21, [][2]int{{1, 8}, {3, 50}, {7, 14}, {0, 49}, {49, 50}, {25, 50}, {33, 40}, {0, 50}, {36, 43}}},
	} {
		a, b, coef := view(RandGaussian(sh.m, sh.d, g), 3, 1), RandGaussian(sh.n, sh.d, g), RandGaussian(sh.m, sh.n, g)
		fill(b.Row(sh.n-1), g, true)
		sprinkleZeros(coef, g)
		chunks := sh.chunks
		if chunks == nil {
			for lo := 0; lo < sh.m; lo++ {
				for hi := lo + 1; hi <= sh.m; hi++ {
					chunks = append(chunks, [2]int{lo, hi})
				}
			}
		}
		for _, ch := range chunks {
			lo, hi := ch[0], ch[1]
			inChunk := func(i, j int) bool { return i >= lo && i < hi }
			for _, k := range []struct {
				name string
				rows int
				cols int
				run  func(dst *Matrix)
				keep func(i, j int) bool
			}{
				// gramRange owes the columns from the diagonal on.
				{"gramRange", sh.m, sh.m, func(dst *Matrix) { gramRange(dst, a, lo, hi) }, func(i, j int) bool { return inChunk(i, j) && j >= i }},
				{"mulABtRangeTiled", sh.m, sh.n, func(dst *Matrix) { mulABtRangeTiled(dst, &leftRows{m: a}, b, lo, hi) }, inChunk},
				{"mulRangeTiled", sh.m, sh.d, func(dst *Matrix) { mulRangeTiled(dst, coef, b, lo, hi) }, inChunk},
			} {
				got, want := New(k.rows, k.cols), New(k.rows, k.cols)
				k.run(got)
				onGoKernels(func() { k.run(want) })
				if i, j, ok := matDiff(got, want, k.keep); !ok {
					t.Fatalf("%s %dx%d·%d rows [%d,%d): differs from the Go kernels' at (%d, %d)", k.name, sh.m, sh.d, sh.n, lo, hi, i, j)
				}
				// Rows outside the chunk belong to other workers.
				if i, j, ok := matDiff(got, New(k.rows, k.cols), func(i, j int) bool { return !inChunk(i, j) }); !ok {
					t.Fatalf("%s rows [%d,%d): wrote (%d, %d), outside its chunk", k.name, lo, hi, i, j)
				}
			}
		}
	}
}

func TestKernelSetNamesTheRunningPath(t *testing.T) {
	if want := map[bool]string{true: "avx2", false: "go"}[useAVX2]; KernelSet() != want {
		t.Errorf("KernelSet() = %q with useAVX2 = %v", KernelSet(), useAVX2)
	}
	onGoKernels(func() {
		if KernelSet() != "go" {
			t.Errorf("KernelSet() = %q with the vector kernels off", KernelSet())
		}
	})
}

// BenchmarkInnerKernels times each inner loop on one k-panel's worth of
// L1-resident operands, on both kernel sets; the packed tile is timed
// with its pack (one pack serves many tiles in the drivers) and alone.
func BenchmarkInnerKernels(b *testing.B) {
	g := rng.New(600)
	var rows [8][]float64
	for i := range rows {
		rows[i] = make([]float64, panelCols)
		fill(rows[i], g, false)
	}
	for _, kern := range elementKernels {
		kern := kern
		b.Run(kern.name, func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				b.SetBytes(8 * panelCols)
				for i := 0; i < b.N; i++ {
					// Coefficients of a rotation: nothing grows.
					kern.run(0.6, 0.8, rows[0], rows[1], rows[2])
				}
			})
		})
	}
	if !useAVX2 {
		return
	}
	pack := make([]float64, 4*panelCols)
	var c [16]float64
	b.Run("pack4", func(b *testing.B) {
		b.SetBytes(8 * 4 * panelCols)
		for i := 0; i < b.N; i++ {
			pack4AVX2(pack, rows[4], rows[5], rows[6], rows[7])
		}
	})
	b.Run("dotPack4x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dotPack4x4AVX2(&c, rows[0], rows[1], rows[2], rows[3], pack)
		}
	})
	b.Run("dot2x2_x4", func(b *testing.B) {
		// The same sixteen outputs through the Go tile kernel.
		for i := 0; i < b.N; i++ {
			for r := 0; r < 4; r += 2 {
				for l := 4; l < 8; l += 2 {
					c[0], c[1], c[2], c[3] = dot2x2(rows[r], rows[r+1], rows[l], rows[l+1], 0, 0, 0, 0)
				}
			}
		}
	})
}

// conversionSpecials are the values a conversion can get wrong: signed
// zeros, float32 subnormals and values that round into or out of them,
// halfway cases between neighbouring float32s, the edges of float32's
// range and past them, and non-finite values.
var conversionSpecials = []float64{
	0, math.Copysign(0, -1), 1e-40, -1e-40, 1e-46, 0x1p-150, 0x1.8p-150, 0x1p-126, 0x1.fffffep-127,
	1 + 0x1p-24, 1 + 0x3p-24, -(1 + 0x1p-24), math.MaxFloat32, 0x1.ffffffp127, 1e39, -1e39,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestConversionKernelsBitIdentical holds widenAVX2 and narrowAVX2 to
// the Go loops, bit for bit — NaN meeting NaN — over every unroll
// remainder, at offsets that put no operand on a 32-byte boundary, on
// Gaussian and on special values, and checks that neither writes
// outside its destination.
func TestConversionKernelsBitIdentical(t *testing.T) {
	requireAVX2(t)
	g := rng.New(4242)
	for _, n := range kernelLengths() {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				src64 := make([]float64, off+n+5)
				fill(src64, g, false)
				src32 := make([]float32, off+n+5)
				for i := range src64 {
					if special && g.Intn(3) == 0 {
						src64[i] = conversionSpecials[g.Intn(len(conversionSpecials))]
					}
					src32[i] = float32(src64[i])
				}
				wide, wideGo := make([]float64, off+n+5), make([]float64, off+n+5)
				fill(wide, g, false)
				copy(wideGo, wide)
				widenAVX2(wide[off:off+n], src32[off:off+n])
				widenGo(wideGo[off:off+n], src32[off:off+n])
				for i := range wide {
					if !sameBits(wide[i], wideGo[i]) {
						t.Fatalf("widen n=%d off=%d special=%v: index %d is %x, Go loop %x", n, off, special, i, math.Float64bits(wide[i]), math.Float64bits(wideGo[i]))
					}
				}
				nar, narGo := make([]float32, off+n+5), make([]float32, off+n+5)
				for i := range nar {
					nar[i] = float32(g.Norm())
				}
				copy(narGo, nar)
				narrowAVX2(nar[off:off+n], src64[off:off+n])
				narrowGo(narGo[off:off+n], src64[off:off+n])
				for i := range nar {
					a, b := nar[i], narGo[i]
					if math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
						t.Fatalf("narrow n=%d off=%d special=%v: index %d is %x, Go loop %x", n, off, special, i, math.Float32bits(a), math.Float32bits(b))
					}
				}
			}
		}
	}
}
