//go:build amd64 && !noasm

#include "textflag.h"

// Rectifier AVX2 kernels (see relu.go). VCMPPD/VCMPPS with predicate
// 0x1E (GT_OQ: greater-than, ordered, quiet) yields all ones in a lane
// exactly when x > +0 — false for NaN and for ±0 — and the AND with that
// mask passes the operand or writes +0. Each iteration handles two YMM
// vectors; both loads of a block precede its stores, so dst may alias
// an input. The Go wrappers run the tails.

// func reluKernel(x, dst *float64, n int)
TEXT ·reluKernel(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   dst+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15

reluloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VCMPPD  $0x1e, Y15, Y0, Y2
	VCMPPD  $0x1e, Y15, Y1, Y3
	VANDPD  Y0, Y2, Y2
	VANDPD  Y1, Y3, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     reluloop

	VZEROUPPER
	RET

// func reluGateKernel(x, dy, dst *float64, n int)
TEXT ·reluGateKernel(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   dy+8(FP), DX
	MOVQ   dst+16(FP), DI
	MOVQ   n+24(FP), CX
	VXORPD Y15, Y15, Y15

relugateloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VCMPPD  $0x1e, Y15, Y0, Y0
	VCMPPD  $0x1e, Y15, Y1, Y1
	VANDPD  (DX), Y0, Y0
	VANDPD  32(DX), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     relugateloop

	VZEROUPPER
	RET

// func relu32Kernel(x, dst *float32, n int)
TEXT ·relu32Kernel(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   dst+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15

relu32loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VCMPPS  $0x1e, Y15, Y0, Y2
	VCMPPS  $0x1e, Y15, Y1, Y3
	VANDPS  Y0, Y2, Y2
	VANDPS  Y1, Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     relu32loop

	VZEROUPPER
	RET

// func reluGate32Kernel(x, dy, dst *float32, n int)
TEXT ·reluGate32Kernel(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   dy+8(FP), DX
	MOVQ   dst+16(FP), DI
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15

relugate32loop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VCMPPS  $0x1e, Y15, Y0, Y0
	VCMPPS  $0x1e, Y15, Y1, Y1
	VANDPS  (DX), Y0, Y0
	VANDPS  32(DX), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     relugate32loop

	VZEROUPPER
	RET
