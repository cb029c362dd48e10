//go:build !amd64 || noasm

package vecmath

func gemm32Kernel4x16(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int) {
	panic("vecmath: assembly kernel without asm support")
}

func gemm32Kernel1x16(a, b *float32, ldb int, c *float32, k int) {
	panic("vecmath: assembly kernel without asm support")
}

func gemm32Kernel4x8(a0, a1, a2, a3, b *float32, ldb int, c *float32, ldc, k int) {
	panic("vecmath: assembly kernel without asm support")
}

func gemm32Kernel1x8(a, b *float32, ldb int, c *float32, k int) {
	panic("vecmath: assembly kernel without asm support")
}

func atb32Kernel4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int) {
	panic("vecmath: assembly kernel without asm support")
}

func atb32Kernel1x16(a *float32, lda int, b *float32, ldb int, c *float32, m int) {
	panic("vecmath: assembly kernel without asm support")
}

func atb32Kernel4x8(a *float32, lda int, b *float32, ldb int, c *float32, ldc, m int) {
	panic("vecmath: assembly kernel without asm support")
}

func atb32Kernel1x8(a *float32, lda int, b *float32, ldb int, c *float32, m int) {
	panic("vecmath: assembly kernel without asm support")
}

func abt32Kernel2x4Batch(a, b *float32, k, batch, sa, sb int, c *float32, ldc, load int) {
	panic("vecmath: assembly kernel without asm support")
}
