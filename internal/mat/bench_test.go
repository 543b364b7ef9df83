package mat

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"arams/internal/rng"
)

func BenchmarkMul(b *testing.B) {
	g := rng.New(1)
	for _, n := range []int{64, 256} {
		x := RandGaussian(n, n, g)
		y := RandGaussian(n, n, g)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Mul(x, y)
			}
		})
	}
}

func BenchmarkMulABt(b *testing.B) {
	g := rng.New(2)
	x := RandGaussian(64, 4096, g)
	y := RandGaussian(32, 4096, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulABt(x, y)
	}
}

func BenchmarkGram(b *testing.B) {
	g := rng.New(3)
	x := RandGaussian(64, 8192, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gram(x)
	}
}

func BenchmarkQR(b *testing.B) {
	g := rng.New(4)
	x := RandGaussian(256, 64, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = QR(x)
	}
}

func BenchmarkEigSym(b *testing.B) {
	g := rng.New(5)
	a := RandGaussian(64, 64, g)
	s := Mul(a, a.T())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = EigSym(s)
	}
}

func BenchmarkSVDGramWideBuffer(b *testing.B) {
	g := rng.New(6)
	// The FD rotation shape: 2ℓ×d with d ≫ 2ℓ.
	buf := RandGaussian(64, 16384, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = SVDGram(buf)
	}
}

// BenchmarkGramRotationShape compares the pre-PR reference kernel with
// the cache-blocked kernel on FD-rotation-shaped inputs (2ℓ×d, d ≫ 2ℓ).
func BenchmarkGramRotationShape(b *testing.B) {
	g := rng.New(7)
	for _, sh := range [][2]int{{64, 4096}, {128, 4096}, {64, 16384}} {
		a := RandGaussian(sh[0], sh[1], g)
		out := New(sh[0], sh[0])
		b.Run(fmt.Sprintf("ref_%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = RefGram(a)
			}
		})
		b.Run(fmt.Sprintf("tiled_%dx%d", sh[0], sh[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GramTo(out, a)
			}
		})
	}
}

// BenchmarkSVDGramRotation measures the full rotation decomposition:
// the reference allocating path versus the pooled SVDGramTo. The pooled
// variant must report zero allocs/op — that is the acceptance bar for
// the FD hot path.
func BenchmarkSVDGramRotation(b *testing.B) {
	g := rng.New(8)
	a := RandGaussian(64, 4096, g)
	sigma := make([]float64, 64)
	vt := New(64, 4096)
	b.Run("ref_64x4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = RefSVDGram(a)
		}
	})
	b.Run("pooled_64x4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sigma = SVDGramTo(a, sigma, vt)
		}
	})
}

func BenchmarkMulABtProjectionShape(b *testing.B) {
	g := rng.New(9)
	// The PCA projection shape: window×d times k×d transposed.
	x := RandGaussian(1024, 4096, g)
	basis := RandGaussian(20, 4096, g)
	dst := New(1024, 20)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = RefMulABt(x, basis)
		}
	})
	b.Run("tiled", func(b *testing.B) {
		forEachKernelSet(b, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulABtTo(dst, x, basis)
			}
		})
	})
	// The window ring's form: the same rows as float32 vectors stored
	// apart, widened a block at a time inside the kernel.
	rows := make([][]float32, x.RowsN)
	for i := range rows {
		rows[i] = make([]float32, x.ColsN)
		for j, v := range x.Row(i) {
			rows[i][j] = float32(v)
		}
	}
	b.Run("rows32", func(b *testing.B) {
		forEachKernelSet(b, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = MulRowsABt(rows, basis)
			}
		})
	})
}

// fdShapedBuffer builds the 2ℓ×d matrix a Frequent Directions rotation
// sees in steady state: ℓ mutually orthogonal rows with a decaying
// spectrum (what the previous shrink left behind) stacked on ℓ fresh
// low-rank-plus-noise data rows.
func fdShapedBuffer(ell, d int, g *rng.RNG) *Matrix {
	basis := RandGaussian(ell, d, g)
	data := func(dst *Matrix) {
		for i := 0; i < dst.RowsN; i++ {
			row := dst.Row(i)
			for k := 0; k < ell; k++ {
				axpy(g.Norm()/float64(k+1), basis.Row(k), row)
			}
			for j := range row {
				row[j] += 0.01 * g.Norm()
			}
		}
	}
	buf := New(2*ell, d)
	data(buf)
	vt := New(ell, d)
	sigma := SVDGramTo(buf, nil, vt)
	delta := sigma[ell] * sigma[ell]
	buf.Zero()
	for i := 0; i < ell; i++ {
		if s2 := sigma[i]*sigma[i] - delta; s2 > 0 {
			axpy(math.Sqrt(s2), vt.Row(i), buf.Row(i))
		}
	}
	data(buf.Rows(ell, 2*ell))
	return buf
}

// BenchmarkSVDGramParts splits one FD rotation's SVDGramTo (2ℓ×d
// buffer, ℓ rows of Vᵀ asked for) into its three kernels, each on the
// Go inner loops and on the vector ones (forEachKernelSet), so the share
// each holds and what the vector loops buy come from one command rather
// than a scratch program. The two kernels that meet the pool run as
// "serial" (the range kernel, no pool) and on pools of width 1, 2 and 4;
// two_callers is two goroutines rotating a buffer each — two shards
// ingesting — where w1 is two serial rotations side by side.
//
// The widths come from withPoolWidth because -cpu cannot supply them:
// the pool is sized once, at first use, which under go test -bench is
// the discovery call at the process's initial GOMAXPROCS. -cpu 1 then
// runs that pool on one P — which is how to read what a split costs in
// CPU: GOMAXPROCS=2 go test -cpu 1 -bench 'SVDGramParts/.*/w2'.
func BenchmarkSVDGramParts(b *testing.B) {
	const ell = 25
	// onPools runs loop(b.N) on pools of width 1, 2 and 4.
	onPools := func(b *testing.B, loop func(n int)) {
		for _, width := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
				b.ReportAllocs()
				withPoolWidth(width, func() { loop(b.N) })
			})
		}
	}
	// kernel times a range kernel called once over the whole range
	// against the pooled entry point above it.
	kernel := func(b *testing.B, serial, pooled func()) {
		b.Run("serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				serial()
			}
		})
		onPools(b, func(n int) {
			for i := 0; i < n; i++ {
				pooled()
			}
		})
	}
	for _, d := range []int{4096, 16384} {
		a := fdShapedBuffer(ell, d, rng.New(10))
		m := a.RowsN
		gram := Gram(a)
		w, ut := New(m, m), New(m, m)
		vals, work := make([]float64, m), make([]float64, m)
		coef := RandGaussian(ell, m, rng.New(11))
		vt := New(ell, d)
		b.Run(fmt.Sprintf("gram_%dx%d", m, d), func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				kernel(b, func() { gramRange(w, a, 0, m); mirrorLower(w) }, func() { GramTo(w, a) })
			})
		})
		// The rotation's Gram: ℓ float64 rows over ℓ float32 ones.
		top, low := splitOf(a, ell)
		b.Run(fmt.Sprintf("gram_split_%dx%d", m, d), func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				onPools(b, func(n int) {
					for i := 0; i < n; i++ {
						gramSplitTo(w, split{top, low})
					}
				})
			})
		})
		b.Run(fmt.Sprintf("eigsym_%dx%d", m, d), func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(w.Data, gram.Data)
					eigSymInto(w, ut, vals, work)
				}
			})
		})
		b.Run(fmt.Sprintf("backmul_%dx%d", m, d), func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				kernel(b, func() { mulRangeTiled(vt, coef, a, 0, ell) }, func() { MulTo(vt, coef, a) })
			})
		})
		b.Run(fmt.Sprintf("two_callers_%dx%d", m, d), func(b *testing.B) {
			forEachKernelSet(b, func(b *testing.B) {
				var bufs, vts [2]*Matrix
				for c := range bufs {
					bufs[c], vts[c] = a.Clone(), New(ell, d)
				}
				onPools(b, func(n int) {
					var wg sync.WaitGroup
					for c := range bufs {
						wg.Add(1)
						go func(buf, vt *Matrix, sigma []float64) {
							defer wg.Done()
							for i := 0; i < n; i++ {
								SVDGramTo(buf, sigma, vt)
							}
						}(bufs[c], vts[c], make([]float64, m))
					}
					wg.Wait()
				})
			})
		})
	}
}

// BenchmarkEigSymOrders times the eigensolver alone on Gram matrices of
// the orders a growing sketch reaches (2ℓ = 24 … 400). The solver runs
// on the calling goroutine at every order; running this under
// GOMAXPROCS=1 and GOMAXPROCS=2 shows the pool's width is not a factor.
func BenchmarkEigSymOrders(b *testing.B) {
	for _, n := range []int{24, 50, 100, 200, 400} {
		gram := Gram(RandGaussian(n, n+n/4, rng.New(12)))
		w, vt := New(n, n), New(n, n)
		vals, work := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(w.Data, gram.Data)
				eigSymInto(w, vt, vals, work)
			}
		})
	}
}
