//go:build amd64 && !noasm

package vecmath

// useAVX gates the AVX2+FMA assembly microkernels in gemm_amd64.s. It is
// resolved once at init from CPUID, so the dispatch in Gemm/GemmATB/
// GemmABT is a predictable branch. The pure-Go register-tiled paths remain
// as the fallback for CPUs without AVX2/FMA (and for tile remainders).
var useAVX = cpuSupportsAVX2FMA()

// cpuSupportsAVX2FMA reports whether the CPU supports AVX2 and FMA3 and
// the OS has enabled YMM state (CPUID leaves 1 and 7 plus XGETBV).
func cpuSupportsAVX2FMA() bool

// gemmKernel4x8 accumulates a 4×8 tile of C += A·B: the four A-row
// pointers advance one element per step, b advances by ldb elements
// (one B row), and after k steps the tile is added into C (row stride
// ldc). All pointers must have k (a), 8+ (b, c) elements available.
//
//go:noescape
func gemmKernel4x8(a0, a1, a2, a3, b *float64, ldb int, c *float64, ldc, k int)

// gemmKernel1x8 is the single-row variant of gemmKernel4x8 for m%4 rows.
//
//go:noescape
func gemmKernel1x8(a, b *float64, ldb int, c *float64, k int)

// atbKernel4x8 accumulates a 4×8 tile of C += Aᵀ·B: a points at the four
// consecutive elements A[i][p..p+3] and advances by lda per step (one A
// row), b advances by ldb. After m steps the tile is added into C.
//
//go:noescape
func atbKernel4x8(a *float64, lda int, b *float64, ldb int, c *float64, ldc, m int)

// atbKernel1x8 is the single-row variant of atbKernel4x8 for k%4 rows.
//
//go:noescape
func atbKernel1x8(a *float64, lda int, b *float64, ldb int, c *float64, m int)

// abtKernel2x4Batch adds into the 2×4 tile of C (row stride ldc) the
// dot products of two consecutive A rows with four consecutive B rows
// (row stride k, k ≥ 4), summed over batch samples whose A and B blocks
// lie sa and sb elements apart. The tile stays in registers and takes
// the samples' partials in sample order. With load == 0 the tile starts
// from -0 instead of C's contents, which makes it overwrite C.
//
//go:noescape
func abtKernel2x4Batch(a, b *float64, k, batch, sa, sb int, c *float64, ldc, load int)
