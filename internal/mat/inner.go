package mat

// Bounds-check-free inner loops for the dense kernels. Everything in
// this file is on the multiply-add critical path of the FD rotation
// shapes (2ℓ×d buffers, d up to millions of columns), where a single
// bounds check per element costs a compare+branch against 1–2 FMAs of
// useful work and blocks the instruction scheduler from pipelining the
// accumulator chains.
//
// Two loop shapes survive both the bounds-check prover and the
// benchmark:
//
//   - simple hoisted loops (`b = b[:n]` once, then `for k := 0; k < n`
//     with unit-stride indexing) — the prover eliminates every check as
//     long as the loop is NOT manually unrolled; an `i+4 <= n` stride-4
//     condition makes it lose the `i+3 < len` facts again (measured,
//     not guessed);
//   - the slice-advance idiom (`x, y = x[8:], y[8:]` under
//     `len(x) >= 8 && len(y) >= 8`, bodies indexing a pinned `x[:8]`)
//     for the unrolled kernels — the shrinking-length condition is the
//     one shape the prover eliminates unrolled accesses for, and the
//     8-wide step amortizes the slice-header updates.
//
// CI enforces the invariant: scripts/check_bce.sh compiles the package
// with -gcflags=-d=ssa/check_bce and fails if the compiler reports any
// per-element IsInBounds in this file. Per-call IsSliceInBounds from
// the `[:n]` hoists is allowed — hoisted checks are the point of the
// idiom. When editing, keep every loop in one of the two shapes above
// and re-run the script.
//
// All kernels iterate over the common prefix of their operands; the
// tiled drivers in blocked.go slice operands to the same panel.
//
// Dispatch. The element-wise kernels, the dot product and the float32
// conversions (Widen, Narrow) exist twice: the Go loop below (suffix
// Go) and an AVX2 loop in simd_amd64.s. The unsuffixed name every
// caller uses picks between them on useAVX2, which the CPU decides once
// at init (a constant false on other architectures and under -tags
// purego). The two are bit-identical by construction — separately
// rounded multiplies and adds, one output per lane, dotKernelGo's own
// four-lane order, conversions that round under the one MXCSR mode —
// so the choice changes speed, never a result; simd_amd64_test.go holds
// the vector loops to that with the Go ones as the oracle. Operands
// must not partially overlap.
// dot2x2 and dot1x2 have no vector twin of their own: their sequential
// sums are vectorised across outputs, one tile at a time, by the packed
// drivers in blocked.go.

// KernelSet names the inner loops this process runs — "avx2" or "go" —
// so a start-up log line, /statusz or a benchmark report can say which
// kernels produced its numbers.
func KernelSet() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// axpy computes y += alpha*x over the common prefix.
func axpy(alpha float64, x, y []float64) {
	if useAVX2 {
		axpyAVX2(alpha, x, y)
		return
	}
	axpyGo(alpha, x, y)
}

// axpy2 computes d0 += x0*b and d1 += x1*b in one pass over b.
func axpy2(x0, x1 float64, b, d0, d1 []float64) {
	if useAVX2 {
		axpy2AVX2(x0, x1, b, d0, d1)
		return
	}
	axpy2Go(x0, x1, b, d0, d1)
}

// scale computes dst = s*src over the common prefix.
func scale(dst []float64, s float64, src []float64) {
	if useAVX2 {
		scaleAVX2(dst, s, src)
		return
	}
	scaleGo(dst, s, src)
}

// dotKernel returns the inner product of the common prefix of x and y.
func dotKernel(x, y []float64) float64 {
	if useAVX2 {
		return dotAVX2(x, y)
	}
	return dotKernelGo(x, y)
}

// planeRot applies the plane rotation x, y ← c·x − s·y, s·x + c·y over
// the common prefix of two rows.
func planeRot(c, s float64, x, y []float64) {
	if useAVX2 {
		planeRotAVX2(c, s, x, y)
		return
	}
	planeRotGo(c, s, x, y)
}

// Widen sets dst[i] = float64(src[i]), which is exact. The lengths must
// match.
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("mat: Widen length mismatch")
	}
	if useAVX2 {
		widenAVX2(dst, src)
		return
	}
	widenGo(dst, src)
}

// Narrow sets dst[i] = float32(src[i]), rounded to nearest, the way the
// engine narrows a frame for its window; a magnitude past float32's
// range becomes ±Inf. The lengths must match.
func Narrow(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("mat: Narrow length mismatch")
	}
	if useAVX2 {
		narrowAVX2(dst, src)
		return
	}
	narrowGo(dst, src)
}

// widenGo is Widen's loop over the common prefix.
func widenGo(dst []float64, src []float32) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// narrowGo is Narrow's loop over the common prefix.
func narrowGo(dst []float32, src []float64) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// axpyGo is axpy 8-way unrolled in the slice-advance idiom.
func axpyGo(alpha float64, x, y []float64) {
	for len(x) >= 8 && len(y) >= 8 {
		x8, y8 := x[:8], y[:8]
		y8[0] += alpha * x8[0]
		y8[1] += alpha * x8[1]
		y8[2] += alpha * x8[2]
		y8[3] += alpha * x8[3]
		y8[4] += alpha * x8[4]
		y8[5] += alpha * x8[5]
		y8[6] += alpha * x8[6]
		y8[7] += alpha * x8[7]
		x, y = x[8:], y[8:]
	}
	for len(x) > 0 && len(y) > 0 {
		y[0] += alpha * x[0]
		x, y = x[1:], y[1:]
	}
}

// axpy2Go is axpy2, loading each b element once for both destination
// rows.
func axpy2Go(x0, x1 float64, b, d0, d1 []float64) {
	for len(b) >= 8 && len(d0) >= 8 && len(d1) >= 8 {
		b8, e0, e1 := b[:8], d0[:8], d1[:8]
		v0, v1, v2, v3 := b8[0], b8[1], b8[2], b8[3]
		v4, v5, v6, v7 := b8[4], b8[5], b8[6], b8[7]
		e0[0] += x0 * v0
		e0[1] += x0 * v1
		e0[2] += x0 * v2
		e0[3] += x0 * v3
		e0[4] += x0 * v4
		e0[5] += x0 * v5
		e0[6] += x0 * v6
		e0[7] += x0 * v7
		e1[0] += x1 * v0
		e1[1] += x1 * v1
		e1[2] += x1 * v2
		e1[3] += x1 * v3
		e1[4] += x1 * v4
		e1[5] += x1 * v5
		e1[6] += x1 * v6
		e1[7] += x1 * v7
		b, d0, d1 = b[8:], d0[8:], d1[8:]
	}
	for len(b) > 0 && len(d0) > 0 && len(d1) > 0 {
		v := b[0]
		d0[0] += x0 * v
		d1[0] += x1 * v
		b, d0, d1 = b[1:], d0[1:], d1[1:]
	}
}

// scaleGo is scale as a simple hoisted loop.
func scaleGo(dst []float64, s float64, src []float64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	dst, src = dst[:n], src[:n]
	for i := 0; i < n; i++ {
		dst[i] = s * src[i]
	}
}

// dotKernelGo is dotKernel 8-way unrolled with four independent
// accumulator chains; lane l of dotAVX2 is chain s_l.
func dotKernelGo(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 8 && len(y) >= 8 {
		x8, y8 := x[:8], y[:8]
		s0 += x8[0]*y8[0] + x8[4]*y8[4]
		s1 += x8[1]*y8[1] + x8[5]*y8[5]
		s2 += x8[2]*y8[2] + x8[6]*y8[6]
		s3 += x8[3]*y8[3] + x8[7]*y8[7]
		x, y = x[8:], y[8:]
	}
	s := s0 + s1 + s2 + s3
	for len(x) > 0 && len(y) > 0 {
		s += x[0] * y[0]
		x, y = x[1:], y[1:]
	}
	return s
}

// dot2x2 continues the four inner products of rows {a0, a1} against
// rows {b0, b1} from the sums c00…c11 it is handed (zero for a fresh
// product), one multiply-add after another in ascending k, so a product
// taken a run of columns at a time is the one-pass product, bit for
// bit. Computing a 2-row × 2-row tile in one pass halves the loads per
// multiply-add and gives the core four independent accumulator chains
// to hide FMA latency behind. The loop stays un-unrolled on purpose:
// with four streams live, the 4 FMAs per iteration already saturate the
// load ports, and unrolling would reintroduce bounds checks (see file
// comment).
func dot2x2(a0, a1, b0, b1 []float64, c00, c01, c10, c11 float64) (float64, float64, float64, float64) {
	n := len(a0)
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	for k := 0; k < n; k++ {
		x0 := a0[k]
		x1 := a1[k]
		y0 := b0[k]
		y1 := b1[k]
		c00 += x0 * y0
		c01 += x0 * y1
		c10 += x1 * y0
		c11 += x1 * y1
	}
	return c00, c01, c10, c11
}

// dot1x2 continues the inner products of x against rows {b0, b1} from
// c0 and c1, as dot2x2 does, loading each x element once for both.
func dot1x2(x, b0, b1 []float64, c0, c1 float64) (float64, float64) {
	n := len(x)
	b0 = b0[:n]
	b1 = b1[:n]
	for k := 0; k < n; k++ {
		v := x[k]
		c0 += v * b0[k]
		c1 += v * b1[k]
	}
	return c0, c1
}

// planeRotGo is planeRot — the row rotation of the eigensolver's QL
// iterations — 4-way unrolled in the slice-advance idiom. Each element pair is read
// before either is written, so the expressions are exactly the scalar
// ones.
func planeRotGo(c, s float64, x, y []float64) {
	for len(x) >= 4 && len(y) >= 4 {
		x4, y4 := x[:4], y[:4]
		a0, a1, a2, a3 := x4[0], x4[1], x4[2], x4[3]
		b0, b1, b2, b3 := y4[0], y4[1], y4[2], y4[3]
		x4[0] = c*a0 - s*b0
		x4[1] = c*a1 - s*b1
		x4[2] = c*a2 - s*b2
		x4[3] = c*a3 - s*b3
		y4[0] = s*a0 + c*b0
		y4[1] = s*a1 + c*b1
		y4[2] = s*a2 + c*b2
		y4[3] = s*a3 + c*b3
		x, y = x[4:], y[4:]
	}
	for len(x) > 0 && len(y) > 0 {
		a, b := x[0], y[0]
		x[0] = c*a - s*b
		y[0] = s*a + c*b
		x, y = x[1:], y[1:]
	}
}
