//go:build !purego

#include "textflag.h"

// AVX2 forms of the inner loops in inner.go plus the packed tile kernel
// of blocked.go. Every routine is bit-for-bit its Go counterpart: each
// multiply and each add is a separate, separately rounded instruction
// (VMULPD/VADDPD/VSUBPD — no FMA), lanes hold independent outputs, and
// the only reduction (dotAVX2) keeps the four-lane order dotKernelGo is
// written in. Every routine takes its operands as slices and derives
// its own element count from their lengths, so no caller-supplied count
// can walk it off the end of an operand. Nothing here needs alignment.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(alpha float64, x, y []float64)
// y[i] += alpha*x[i] over the common prefix.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VBROADCASTSD alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-16, BX
axpy_loop16:
	CMPQ AX, BX
	JGE  axpy_tail4
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VMULPD 64(SI)(AX*8), Y0, Y3
	VMULPD 96(SI)(AX*8), Y0, Y4
	VADDPD (DI)(AX*8), Y1, Y1
	VADDPD 32(DI)(AX*8), Y2, Y2
	VADDPD 64(DI)(AX*8), Y3, Y3
	VADDPD 96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  axpy_loop16
axpy_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
axpy_loop4:
	CMPQ AX, BX
	JGE  axpy_tail1
	VMULPD (SI)(AX*8), Y0, Y1
	VADDPD (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy_loop4
axpy_tail1:
	CMPQ AX, CX
	JGE  axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  axpy_tail1
axpy_done:
	VZEROUPPER
	RET

// func axpy2AVX2(x0, x1 float64, b, d0, d1 []float64)
// d0[i] += x0*b[i]; d1[i] += x1*b[i] over the common prefix.
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ b_base+16(FP), SI
	MOVQ b_len+24(FP), CX
	MOVQ d0_base+40(FP), DI
	MOVQ d0_len+48(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ d1_base+64(FP), R8
	MOVQ d1_len+72(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VBROADCASTSD x0+0(FP), Y0
	VBROADCASTSD x1+8(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
axpy2_loop8:
	CMPQ AX, BX
	JGE  axpy2_tail4
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD Y2, Y0, Y4
	VMULPD Y3, Y0, Y5
	VMULPD Y2, Y1, Y6
	VMULPD Y3, Y1, Y7
	VADDPD (DI)(AX*8), Y4, Y4
	VADDPD 32(DI)(AX*8), Y5, Y5
	VADDPD (R8)(AX*8), Y6, Y6
	VADDPD 32(R8)(AX*8), Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (R8)(AX*8)
	VMOVUPD Y7, 32(R8)(AX*8)
	ADDQ $8, AX
	JMP  axpy2_loop8
axpy2_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpy2_tail1
	VMOVUPD (SI)(AX*8), Y2
	VMULPD Y2, Y0, Y4
	VMULPD Y2, Y1, Y6
	VADDPD (DI)(AX*8), Y4, Y4
	VADDPD (R8)(AX*8), Y6, Y6
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, (R8)(AX*8)
	ADDQ $4, AX
axpy2_tail1:
	CMPQ AX, CX
	JGE  axpy2_done
	VMOVSD (SI)(AX*8), X2
	VMULSD X2, X0, X4
	VMULSD X2, X1, X6
	VADDSD (DI)(AX*8), X4, X4
	VADDSD (R8)(AX*8), X6, X6
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X6, (R8)(AX*8)
	INCQ AX
	JMP  axpy2_tail1
axpy2_done:
	VZEROUPPER
	RET

// func scaleAVX2(dst []float64, s float64, src []float64)
// dst[i] = s*src[i] over the common prefix.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VBROADCASTSD s+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-16, BX
scale_loop16:
	CMPQ AX, BX
	JGE  scale_tail4
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VMULPD 64(SI)(AX*8), Y0, Y3
	VMULPD 96(SI)(AX*8), Y0, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ $16, AX
	JMP  scale_loop16
scale_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
scale_loop4:
	CMPQ AX, BX
	JGE  scale_tail1
	VMULPD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  scale_loop4
scale_tail1:
	CMPQ AX, CX
	JGE  scale_done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  scale_tail1
scale_done:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float64) float64
// Lane l of the accumulator is dotKernelGo's chain s_l: per block of
// eight it adds x[l]*y[l] + x[l+4]*y[l+4]; the lanes are then summed
// ((s0+s1)+s2)+s3 and the scalar tail is added in order.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ y_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
dot_loop8:
	CMPQ AX, BX
	JGE  dot_reduce
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (DI)(AX*8), Y1, Y1
	VMULPD 32(DI)(AX*8), Y2, Y2
	VADDPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $8, AX
	JMP  dot_loop8
dot_reduce:
	VEXTRACTF128 $1, Y0, X1
	VUNPCKHPD X0, X0, X2
	VADDSD X2, X0, X0
	VADDSD X1, X0, X0
	VUNPCKHPD X1, X1, X1
	VADDSD X1, X0, X0
dot_tail1:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSD (SI)(AX*8), X1
	VMULSD (DI)(AX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ AX
	JMP  dot_tail1
dot_done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func planeRotAVX2(c, s float64, x, y []float64)
// x[i], y[i] = c*x[i] - s*y[i], s*x[i] + c*y[i] over the common prefix.
TEXT ·planeRotAVX2(SB), NOSPLIT, $0-64
	MOVQ x_base+16(FP), SI
	MOVQ x_len+24(FP), CX
	MOVQ y_base+40(FP), DI
	MOVQ y_len+48(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
rot_loop8:
	CMPQ AX, BX
	JGE  rot_tail4
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD 32(SI)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD Y2, Y0, Y6
	VMULPD Y3, Y0, Y7
	VMULPD Y4, Y1, Y8
	VMULPD Y5, Y1, Y9
	VSUBPD Y8, Y6, Y6
	VSUBPD Y9, Y7, Y7
	VMULPD Y2, Y1, Y2
	VMULPD Y3, Y1, Y3
	VMULPD Y4, Y0, Y4
	VMULPD Y5, Y0, Y5
	VADDPD Y4, Y2, Y2
	VADDPD Y5, Y3, Y3
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  rot_loop8
rot_tail4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  rot_tail1
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y4
	VMULPD Y2, Y0, Y6
	VMULPD Y4, Y1, Y8
	VSUBPD Y8, Y6, Y6
	VMULPD Y2, Y1, Y2
	VMULPD Y4, Y0, Y4
	VADDPD Y4, Y2, Y2
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
rot_tail1:
	CMPQ AX, CX
	JGE  rot_done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DI)(AX*8), X4
	VMULSD X2, X0, X6
	VMULSD X4, X1, X8
	VSUBSD X8, X6, X6
	VMULSD X2, X1, X2
	VMULSD X4, X0, X4
	VADDSD X4, X2, X2
	VMOVSD X6, (SI)(AX*8)
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP  rot_tail1
rot_done:
	VZEROUPPER
	RET

// func pack4AVX2(dst, r0, r1, r2, r3 []float64)
// dst[4k+l] = r_l[k] for k < n = min(len(r_l), len(dst)/4): four rows
// interleaved so that one 32-byte load yields element k of each.
TEXT ·pack4AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $2, CX
	MOVQ r0_base+24(FP), R8
	MOVQ r0_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ r1_base+48(FP), R9
	MOVQ r1_len+56(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ r2_base+72(FP), R10
	MOVQ r2_len+80(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ r3_base+96(FP), R11
	MOVQ r3_len+104(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
pack_loop2:
	CMPQ AX, BX
	JGE  pack_tail1
	// Y0 = r0[k], r0[k+1], r2[k], r2[k+1]; Y1 likewise from r1 and r3.
	VMOVUPD (R8)(AX*8), X0
	VMOVUPD (R9)(AX*8), X1
	VINSERTF128 $1, (R10)(AX*8), Y0, Y0
	VINSERTF128 $1, (R11)(AX*8), Y1, Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $64, DI
	ADDQ $2, AX
	JMP  pack_loop2
pack_tail1:
	CMPQ AX, CX
	JGE  pack_done
	MOVQ (R8)(AX*8), DX
	MOVQ DX, (DI)
	MOVQ (R9)(AX*8), DX
	MOVQ DX, 8(DI)
	MOVQ (R10)(AX*8), DX
	MOVQ DX, 16(DI)
	MOVQ (R11)(AX*8), DX
	MOVQ DX, 24(DI)
	ADDQ $32, DI
	INCQ AX
	JMP  pack_tail1
pack_done:
	VZEROUPPER
	RET

// func dotPack4x4AVX2(c *[16]float64, a0, a1, a2, a3, p []float64)
// c[4r+l] = Σ_k a_r[k]*p[4k+l] for k < n = min(len(a_r), len(p)/4),
// every sum started at +0 and taken in ascending k — the sequential sum
// dot2x2Go and dot1x2Go form for one output, sixteen outputs at a time,
// one per lane.
TEXT ·dotPack4x4AVX2(SB), NOSPLIT, $0-128
	MOVQ c+0(FP), DI
	MOVQ p_base+104(FP), SI
	MOVQ p_len+112(FP), CX
	SHRQ $2, CX
	MOVQ a0_base+8(FP), R8
	MOVQ a0_len+16(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ a1_base+32(FP), R9
	MOVQ a1_len+40(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ a2_base+56(FP), R10
	MOVQ a2_len+64(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ a3_base+80(FP), R11
	MOVQ a3_len+88(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-2, BX
dp_loop2:
	CMPQ AX, BX
	JGE  dp_tail1
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VBROADCASTSD (R8)(AX*8), Y6
	VBROADCASTSD (R9)(AX*8), Y7
	VBROADCASTSD (R10)(AX*8), Y8
	VBROADCASTSD (R11)(AX*8), Y9
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VBROADCASTSD 8(R8)(AX*8), Y10
	VBROADCASTSD 8(R9)(AX*8), Y11
	VBROADCASTSD 8(R10)(AX*8), Y12
	VBROADCASTSD 8(R11)(AX*8), Y13
	VMULPD Y5, Y10, Y10
	VMULPD Y5, Y11, Y11
	VMULPD Y5, Y12, Y12
	VMULPD Y5, Y13, Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	ADDQ $64, SI
	ADDQ $2, AX
	JMP  dp_loop2
dp_tail1:
	CMPQ AX, CX
	JGE  dp_done
	VMOVUPD (SI), Y4
	VBROADCASTSD (R8)(AX*8), Y6
	VBROADCASTSD (R9)(AX*8), Y7
	VBROADCASTSD (R10)(AX*8), Y8
	VBROADCASTSD (R11)(AX*8), Y9
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
dp_done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
