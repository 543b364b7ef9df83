//go:build !amd64 || purego

package mat

// Without the assembly (another architecture, or -tags purego) the Go
// kernels are the only ones: useAVX2 is a constant, so every dispatch
// branch compiles away and the declarations below are never called.
const useAVX2 = false

func axpyAVX2(alpha float64, x, y []float64)                     { panic("mat: no vector kernels") }
func axpy2AVX2(x0, x1 float64, b, d0, d1 []float64)              { panic("mat: no vector kernels") }
func scaleAVX2(dst []float64, s float64, src []float64)          { panic("mat: no vector kernels") }
func dotAVX2(x, y []float64) float64                             { panic("mat: no vector kernels") }
func planeRotAVX2(c, s float64, x, y []float64)                  { panic("mat: no vector kernels") }
func pack4AVX2(dst, r0, r1, r2, r3 []float64)                    { panic("mat: no vector kernels") }
func dotPack4x4AVX2(c *[16]float64, a0, a1, a2, a3, p []float64) { panic("mat: no vector kernels") }
func widenAVX2(dst []float64, src []float32)                     { panic("mat: no vector kernels") }
func narrowAVX2(dst []float32, src []float64)                    { panic("mat: no vector kernels") }
