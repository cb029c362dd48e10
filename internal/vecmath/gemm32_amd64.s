//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA float32 microkernels for the GEMM entry points in matrix32.go.
// Mechanical ports of the float64 kernels in gemm_amd64.s at twice the
// lane width: a YMM register holds 8 float32s, so the two-vector tiles
// cover 16 columns and the one-vector tiles cover 8. Same structure
// throughout — leaf functions, accumulator tiles live in YMM registers,
// C is touched exactly once.

// func gemm32Kernel4x16(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)
TEXT ·gemm32Kernel4x16(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $2, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $2, R13
	MOVQ k+64(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gemm32_4x16loop:
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R9), Y11
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_4x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	VADDPS  32(DI), Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	VADDPS  32(DI), Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y6, Y6
	VMOVUPS Y6, (DI)
	VADDPS  32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm32Kernel1x16(a, b *float32, ldb int, c *float32, k int)
TEXT ·gemm32Kernel1x16(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $2, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

gemm32_1x16loop:
	VBROADCASTSS (R8), Y10
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         $4, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_1x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm32Kernel4x8(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int)
TEXT ·gemm32Kernel4x8(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $2, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $2, R13
	MOVQ k+64(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

gemm32_4x8loop:
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R9), Y11
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_4x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func gemm32Kernel1x8(a, b *float32, ldb int, c *float32, k int)
TEXT ·gemm32Kernel1x8(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $2, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPS Y0, Y0, Y0

gemm32_1x8loop:
	VBROADCASTSS (R8), Y10
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	ADDQ         $4, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm32_1x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func atb32Kernel4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)
TEXT ·atb32Kernel4x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $2, R13
	MOVQ m+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

atb32_4x16loop:
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_4x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	VADDPS  32(DI), Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	VADDPS  32(DI), Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y6, Y6
	VMOVUPS Y6, (DI)
	VADDPS  32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func atb32Kernel1x16(a *float32, lda int, b *float32, ldb int, c *float32, m int)
TEXT ·atb32Kernel1x16(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

atb32_1x16loop:
	VBROADCASTSS (AX), Y10
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_1x16loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func atb32Kernel4x8(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int)
TEXT ·atb32Kernel4x8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $2, R13
	MOVQ m+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

atb32_4x8loop:
	VBROADCASTSS (AX), Y10
	VBROADCASTSS 4(AX), Y11
	VBROADCASTSS 8(AX), Y12
	VBROADCASTSS 12(AX), Y13
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y8, Y11, Y1
	VFMADD231PS  Y8, Y12, Y2
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_4x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    R13, DI
	VADDPS  (DI), Y3, Y3
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func atb32Kernel1x8(a *float32, lda int, b *float32, ldb int, c *float32, m int)
TEXT ·atb32Kernel1x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $2, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $2, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPS Y0, Y0, Y0

atb32_1x8loop:
	VBROADCASTSS (AX), Y10
	VMOVUPS      (SI), Y8
	VFMADD231PS  Y8, Y10, Y0
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb32_1x8loop

	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func abt32Kernel2x4Batch(a, b *float32, k, batch, sa, sb int, c *float32, ldc, load int)
//
// The float32 twin of abtKernel2x4Batch: per sample, FMA chains over the
// multiple-of-8 prefix of k, each 8-lane accumulator reduced as (lo+hi)
// then two pairwise VHADDPS steps, the scalar k tail added product by
// product, and the 2×4 result added into C (X14/X15) in sample order.
// Requires k ≥ 8 and batch ≥ 1.
TEXT ·abt32Kernel2x4Batch(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R10
	MOVQ k+16(FP), AX
	SHLQ $2, AX            // AX = row stride in bytes
	LEAQ (R8)(AX*1), R9
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	MOVQ AX, BX
	ANDQ $~31, BX          // BX = bytes of the multiple-of-8 prefix
	MOVQ batch+24(FP), DX
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), CX
	SHLQ $2, CX
	CMPQ load+64(FP), $0
	JEQ  abt32bnegzero
	VMOVUPS (DI), X14
	VMOVUPS (DI)(CX*1), X15
	JMP  abt32bsample

abt32bnegzero:
	// Overwrite mode: start the tile from -0 (sign bit only), the exact
	// additive identity.
	VPCMPEQD X14, X14, X14
	VPSLLD $31, X14, X14
	VMOVUPS X14, X15

abt32bsample:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   SI, SI

abt32bloop:
	VMOVUPS     (R8)(SI*1), Y8
	VMOVUPS     (R9)(SI*1), Y9
	VMOVUPS     (R10)(SI*1), Y10
	VMOVUPS     (R11)(SI*1), Y11
	VMOVUPS     (R12)(SI*1), Y12
	VMOVUPS     (R13)(SI*1), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ        $32, SI
	CMPQ        SI, BX
	JB          abt32bloop

	// Reduce each accumulator to lo+hi (4 lanes), then two pairwise
	// VHADDPS steps, eight accumulators at once. After the second step
	// the low 128-bit lane holds {r0c0, r0c1, r1c0, r1c1} and the high
	// lane {r0c2, r0c3, r1c2, r1c3}; 64-bit unpacks regroup them into
	// row 0 (X8) and row 1 (X9).
	VPERM2F128   $0x20, Y2, Y0, Y8
	VPERM2F128   $0x31, Y2, Y0, Y9
	VADDPS       Y9, Y8, Y8
	VPERM2F128   $0x20, Y3, Y1, Y9
	VPERM2F128   $0x31, Y3, Y1, Y10
	VADDPS       Y10, Y9, Y9
	VHADDPS      Y9, Y8, Y8
	VPERM2F128   $0x20, Y6, Y4, Y9
	VPERM2F128   $0x31, Y6, Y4, Y10
	VADDPS       Y10, Y9, Y9
	VPERM2F128   $0x20, Y7, Y5, Y10
	VPERM2F128   $0x31, Y7, Y5, Y11
	VADDPS       Y11, Y10, Y10
	VHADDPS      Y10, Y9, Y9
	VHADDPS      Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X10
	VUNPCKHPD    X10, X8, X9
	VUNPCKLPD    X10, X8, X8

	// k tail: out += a·b one element at a time (multiply, then add).
	CMPQ SI, AX
	JAE  abt32badd

abt32btail:
	VMOVSS       (R10)(SI*1), X10
	VINSERTPS    $0x10, (R11)(SI*1), X10, X10
	VINSERTPS    $0x20, (R12)(SI*1), X10, X10
	VINSERTPS    $0x30, (R13)(SI*1), X10, X10
	VBROADCASTSS (R8)(SI*1), X11
	VMULPS       X11, X10, X12
	VADDPS       X8, X12, X8
	VBROADCASTSS (R9)(SI*1), X11
	VMULPS       X11, X10, X12
	VADDPS       X9, X12, X9
	ADDQ         $4, SI
	CMPQ         SI, AX
	JB           abt32btail

abt32badd:
	VADDPS X14, X8, X14
	VADDPS X15, X9, X15
	MOVQ   sa+32(FP), SI
	SHLQ   $2, SI
	ADDQ   SI, R8
	ADDQ   SI, R9
	MOVQ   sb+40(FP), SI
	SHLQ   $2, SI
	ADDQ   SI, R10
	ADDQ   SI, R11
	ADDQ   SI, R12
	ADDQ   SI, R13
	DECQ   DX
	JNZ    abt32bsample

	VMOVUPS X14, (DI)
	VMOVUPS X15, (DI)(CX*1)
	VZEROUPPER
	RET
