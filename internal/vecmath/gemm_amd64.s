//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA microkernels for the GEMM entry points in matrix.go. All
// kernels are leaf functions that keep their accumulator tiles in YMM
// registers and touch C exactly once, so the inner loops are pure
// load+FMA streams. Remainder rows/columns and short reductions are
// handled by the pure-Go fallback paths, which keeps the assembly small.

// func cpuSupportsAVX2FMA() bool
TEXT ·cpuSupportsAVX2FMA(SB), NOSPLIT, $0-1
	// Highest function parameter must reach leaf 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  unsupported

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	CPUID
	MOVL CX, R8
	ANDL $402657280, R8  // 1<<12 | 1<<27 | 1<<28
	CMPL R8, $402657280
	JNE  unsupported

	// XCR0 bits 1 and 2: XMM and YMM state enabled by the OS.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  unsupported

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $32, BX
	JZ   unsupported

	MOVB $1, ret+0(FP)
	RET

unsupported:
	MOVB $0, ret+0(FP)
	RET

// func gemmKernel4x8(a0, a1, a2, a3, b *float64, ldb int, c *float64, ldc, k int)
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-72
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), R12
	SHLQ $3, R12
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), R13
	SHLQ $3, R13
	MOVQ k+64(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

gemm4x8loop:
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R9), Y11
	VBROADCASTSD (R10), Y12
	VBROADCASTSD (R11), Y13
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm4x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmKernel1x8(a, b *float64, ldb int, c *float64, k int)
TEXT ·gemmKernel1x8(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), R12
	SHLQ $3, R12
	MOVQ c+24(FP), DI
	MOVQ k+32(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

gemm1x8loop:
	VBROADCASTSD (R8), Y10
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         $8, R8
	ADDQ         R12, SI
	DECQ         CX
	JNZ          gemm1x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func atbKernel4x8(a *float64, lda int, b *float64, ldb int, c *float64, ldc, m int)
TEXT ·atbKernel4x8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $3, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $3, R12
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R13
	SHLQ $3, R13
	MOVQ m+48(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

atb4x8loop:
	VBROADCASTSD (AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD 16(AX), Y12
	VBROADCASTSD 24(AX), Y13
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb4x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    R13, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func atbKernel1x8(a *float64, lda int, b *float64, ldb int, c *float64, m int)
TEXT ·atbKernel1x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), AX
	MOVQ lda+8(FP), BX
	SHLQ $3, BX
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R12
	SHLQ $3, R12
	MOVQ c+32(FP), DI
	MOVQ m+40(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

atb1x8loop:
	VBROADCASTSD (AX), Y10
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         BX, AX
	ADDQ         R12, SI
	DECQ         CX
	JNZ          atb1x8loop

	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func abtKernel2x4Batch(a, b *float64, k, batch, sa, sb int, c *float64, ldc, load int)
//
// For each of batch samples s (A_s = a+s·sa, B_s = b+s·sb elements) it
// forms the eight dot products of A_s rows 0..1 with B_s rows 0..3 (row
// stride k) and adds them into the 2×4 tile of C (row stride ldc), which
// stays in Y14/Y15 across the samples. Per sample the arithmetic is that
// of one single-sample dot tile: FMA chains over the multiple-of-4
// prefix of k, each accumulator reduced as (lo+hi) then pairwise, the
// scalar k tail added product by product, and the result added into C —
// so C receives the samples' partials one after another in sample order.
// Requires k ≥ 4 and batch ≥ 1.
TEXT ·abtKernel2x4Batch(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R10
	MOVQ k+16(FP), AX
	SHLQ $3, AX            // AX = row stride in bytes
	LEAQ (R8)(AX*1), R9
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	MOVQ AX, BX
	ANDQ $~31, BX          // BX = bytes of the multiple-of-4 prefix
	MOVQ batch+24(FP), DX
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), CX
	SHLQ $3, CX
	CMPQ load+64(FP), $0
	JEQ  abtbnegzero
	VMOVUPD (DI), Y14
	VMOVUPD (DI)(CX*1), Y15
	JMP  abtbsample

abtbnegzero:
	// Overwrite mode: start the tile from -0 (sign bit only), the exact
	// additive identity.
	VPCMPEQQ Y14, Y14, Y14
	VPSLLQ $63, Y14, Y14
	VMOVUPD Y14, Y15

abtbsample:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   SI, SI

abtbloop:
	VMOVUPD     (R8)(SI*1), Y8
	VMOVUPD     (R9)(SI*1), Y9
	VMOVUPD     (R10)(SI*1), Y10
	VMOVUPD     (R11)(SI*1), Y11
	VMOVUPD     (R12)(SI*1), Y12
	VMOVUPD     (R13)(SI*1), Y13
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y10, Y9, Y4
	VFMADD231PD Y11, Y9, Y5
	VFMADD231PD Y12, Y9, Y6
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $32, SI
	CMPQ        SI, BX
	JB          abtbloop

	// Reduce each accumulator y to (y0+y2)+(y1+y3), four at a time:
	// pair the low and high halves of two accumulators, add, then one
	// VHADDPD leaves row r's four sums in order in Y8 (r=0) / Y9 (r=1).
	VPERM2F128 $0x20, Y2, Y0, Y8
	VPERM2F128 $0x31, Y2, Y0, Y9
	VADDPD     Y9, Y8, Y8
	VPERM2F128 $0x20, Y3, Y1, Y9
	VPERM2F128 $0x31, Y3, Y1, Y10
	VADDPD     Y10, Y9, Y9
	VHADDPD    Y9, Y8, Y8
	VPERM2F128 $0x20, Y6, Y4, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VADDPD     Y10, Y9, Y9
	VPERM2F128 $0x20, Y7, Y5, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VADDPD     Y11, Y10, Y10
	VHADDPD    Y10, Y9, Y9

	// k tail: out += a·b one element at a time (multiply, then add).
	CMPQ SI, AX
	JAE  abtbadd

abtbtail:
	VMOVSD       (R10)(SI*1), X10
	VMOVHPD      (R11)(SI*1), X10, X10
	VMOVSD       (R12)(SI*1), X11
	VMOVHPD      (R13)(SI*1), X11, X11
	VINSERTF128  $1, X11, Y10, Y10
	VBROADCASTSD (R8)(SI*1), Y11
	VMULPD       Y11, Y10, Y12
	VADDPD       Y8, Y12, Y8
	VBROADCASTSD (R9)(SI*1), Y11
	VMULPD       Y11, Y10, Y12
	VADDPD       Y9, Y12, Y9
	ADDQ         $8, SI
	CMPQ         SI, AX
	JB           abtbtail

abtbadd:
	VADDPD Y14, Y8, Y14
	VADDPD Y15, Y9, Y15
	MOVQ   sa+32(FP), SI
	SHLQ   $3, SI
	ADDQ   SI, R8
	ADDQ   SI, R9
	MOVQ   sb+40(FP), SI
	SHLQ   $3, SI
	ADDQ   SI, R10
	ADDQ   SI, R11
	ADDQ   SI, R12
	ADDQ   SI, R13
	DECQ   DX
	JNZ    abtbsample

	VMOVUPD Y14, (DI)
	VMOVUPD Y15, (DI)(CX*1)
	VZEROUPPER
	RET
