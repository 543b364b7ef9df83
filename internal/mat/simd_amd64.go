//go:build !purego

package mat

// useAVX2 selects the vector kernels of simd_amd64.s. It is set once,
// here, from the CPU; nothing outside the tests writes it afterwards.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM state across context switches.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS restores XMM and YMM registers.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func axpy2AVX2(x0, x1 float64, b, d0, d1 []float64)

//go:noescape
func scaleAVX2(dst []float64, s float64, src []float64)

//go:noescape
func dotAVX2(x, y []float64) float64

//go:noescape
func planeRotAVX2(c, s float64, x, y []float64)

//go:noescape
func pack4AVX2(dst, r0, r1, r2, r3 []float64)

//go:noescape
func dotPack4x4AVX2(c *[16]float64, a0, a1, a2, a3, p []float64)

//go:noescape
func widenAVX2(dst []float64, src []float32)

//go:noescape
func narrowAVX2(dst []float32, src []float64)
