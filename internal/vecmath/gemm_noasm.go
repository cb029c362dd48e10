//go:build !amd64 || noasm

package vecmath

// useAVX is false on architectures without the assembly microkernels, so
// the compiler removes the AVX dispatch branches and the stubs below are
// never reached.
const useAVX = false

func gemmKernel4x8(a0, a1, a2, a3, b *float64, ldb int, c *float64, ldc, k int) {
	panic("vecmath: assembly kernel on non-amd64")
}

func gemmKernel1x8(a, b *float64, ldb int, c *float64, k int) {
	panic("vecmath: assembly kernel on non-amd64")
}

func atbKernel4x8(a *float64, lda int, b *float64, ldb int, c *float64, ldc, m int) {
	panic("vecmath: assembly kernel on non-amd64")
}

func atbKernel1x8(a *float64, lda int, b *float64, ldb int, c *float64, m int) {
	panic("vecmath: assembly kernel on non-amd64")
}

func abtKernel2x4Batch(a, b *float64, k, batch, sa, sb int, c *float64, ldc, load int) {
	panic("vecmath: assembly kernel on non-amd64")
}
