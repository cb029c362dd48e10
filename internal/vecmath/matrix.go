package vecmath

import (
	"fmt"
	"math"
)

// Row-major matrix kernels used by the neural-network substrate. A matrix
// with r rows and c columns is stored as a []float64 of length r*c with
// element (i, j) at index i*c+j. Keeping these loops here (rather than
// inside internal/nn) lets the gradient-check tests exercise them in
// isolation and keeps the layer code focused on calculus.
//
// The three GEMM entry points (Gemm, GemmATB, GemmABT) share a common
// design: a 2×4 register tile of C accumulates in registers across the
// whole reduction and is written back once, so the inner loop performs 16
// flops per 6 loads with no stores. Gemm additionally blocks the reduction
// dimension (gemmKC) so the 4-column stripe of B walked by a tile stays
// cache-resident for long reductions, and GemmATB switches to a rank-1
// row-panel form when the reduction is long enough to amortize streaming
// C. Each kernel takes an accumulate flag so callers can fold C += A·B
// directly into a gradient vector instead of computing into scratch and
// AXPY-ing. The kernels are dense: unlike the pre-GEMM substrate they
// never test elements against zero, so throughput is independent of the
// data (and much higher on the dense activations that dominate training).

// Kernel parameters; see DESIGN.md §2 for the blocking scheme.
const (
	// gemmMR × gemmNR names the register tile of the pure-Go kernels:
	// 2×4 = 8 accumulators plus 6 in-flight operands, which fits the
	// 16-register floating-point file of the amd64 backend without
	// spills. The tile shape is baked into the unrolled kernel bodies
	// (s00..s13, brow[0..3]) — these constants document it and pin the
	// loop strides; changing them alone does NOT retile the kernels.
	gemmMR = 2
	gemmNR = 4
	// gemmKC bounds the reduction-dimension block in Gemm so the
	// 4-column stripe of B walked by one register tile (gemmKC cache
	// lines) stays L1-resident even for long inner dimensions. This one
	// is a genuine tuning knob.
	gemmKC = 256
	// gemmATBPanelMin is the reduction length above which the pure-Go
	// GemmATB switches from register-dot tiles to rank-1 row panels:
	// with that many updates per C row the panel stays cache-hot while
	// each B row loaded feeds four C rows. Also a genuine tuning knob.
	gemmATBPanelMin = 64
)

func checkDims(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("vecmath: %s: backing slice has %d elements, want %d", op, got, want))
	}
}

// Gemm computes C = A·B (or C += A·B when accumulate is true) where A is
// m×k, B is k×n, and C is m×n. C must not alias A or B.
func Gemm(c, a, b []float64, m, k, n int, accumulate bool) {
	checkDims("Gemm A", len(a), m*k)
	checkDims("Gemm B", len(b), k*n)
	checkDims("Gemm C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	if useAVX && n >= 8 {
		gemmAVX(c, a, b, m, k, n, accumulate)
		return
	}
	gemmGeneric(c, a, b, m, k, n, accumulate)
}

// gemmAVX tiles C into 4×8 (and 1×8) blocks handled by the FMA
// microkernels; the sub-tile column remainder falls back to scalar dots.
// The kernels accumulate unconditionally, so C is cleared first unless
// the caller asked for accumulation.
func gemmAVX(c, a, b []float64, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	mMain := m &^ 3
	nMain := n &^ 7
	for i := 0; i < mMain; i += 4 {
		for j := 0; j < nMain; j += 8 {
			gemmKernel4x8(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &b[j], n, &c[i*n+j], n, k)
		}
	}
	for i := mMain; i < m; i++ {
		for j := 0; j < nMain; j += 8 {
			gemmKernel1x8(&a[i*k], &b[j], n, &c[i*n+j], k)
		}
	}
	if nMain == n {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := nMain; j < n; j++ {
			var s float64
			idx := j
			for _, ap := range arow {
				s += ap * b[idx]
				idx += n
			}
			crow[j] += s
		}
	}
}

func gemmGeneric(c, a, b []float64, m, k, n int, accumulate bool) {
	for p0 := 0; p0 < k; p0 += gemmKC {
		pEnd := min(p0+gemmKC, k)
		add := accumulate || p0 > 0
		i := 0
		for ; i+gemmMR <= m; i += gemmMR {
			a0 := a[i*k+p0 : i*k+pEnd]
			a1 := a[(i+1)*k+p0 : (i+1)*k+pEnd]
			a1 = a1[:len(a0)]
			c0 := c[i*n : (i+1)*n]
			c1 := c[(i+1)*n : (i+2)*n]
			j := 0
			for ; j+gemmNR <= n; j += gemmNR {
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				idx := p0*n + j
				for p, a0p := range a0 {
					a1p := a1[p]
					brow := b[idx : idx+4]
					b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
					idx += n
					s00 += a0p * b0
					s01 += a0p * b1
					s02 += a0p * b2
					s03 += a0p * b3
					s10 += a1p * b0
					s11 += a1p * b1
					s12 += a1p * b2
					s13 += a1p * b3
				}
				if add {
					c0[j] += s00
					c0[j+1] += s01
					c0[j+2] += s02
					c0[j+3] += s03
					c1[j] += s10
					c1[j+1] += s11
					c1[j+2] += s12
					c1[j+3] += s13
				} else {
					c0[j] = s00
					c0[j+1] = s01
					c0[j+2] = s02
					c0[j+3] = s03
					c1[j] = s10
					c1[j+1] = s11
					c1[j+2] = s12
					c1[j+3] = s13
				}
			}
			for ; j < n; j++ {
				var s0, s1 float64
				idx := p0*n + j
				for p, a0p := range a0 {
					bv := b[idx]
					idx += n
					s0 += a0p * bv
					s1 += a1[p] * bv
				}
				if add {
					c0[j] += s0
					c1[j] += s1
				} else {
					c0[j] = s0
					c1[j] = s1
				}
			}
		}
		if i < m {
			arow := a[i*k+p0 : i*k+pEnd]
			crow := c[i*n : (i+1)*n]
			j := 0
			for ; j+gemmNR <= n; j += gemmNR {
				var s0, s1, s2, s3 float64
				idx := p0*n + j
				for _, ap := range arow {
					brow := b[idx : idx+4]
					s0 += ap * brow[0]
					s1 += ap * brow[1]
					s2 += ap * brow[2]
					s3 += ap * brow[3]
					idx += n
				}
				if add {
					crow[j] += s0
					crow[j+1] += s1
					crow[j+2] += s2
					crow[j+3] += s3
				} else {
					crow[j] = s0
					crow[j+1] = s1
					crow[j+2] = s2
					crow[j+3] = s3
				}
			}
			for ; j < n; j++ {
				var s float64
				idx := p0*n + j
				for _, ap := range arow {
					s += ap * b[idx]
					idx += n
				}
				if add {
					crow[j] += s
				} else {
					crow[j] = s
				}
			}
		}
	}
}

// GemmATB computes C = Aᵀ·B (or C += Aᵀ·B when accumulate is true) where
// A is m×k (so Aᵀ is k×m), B is m×n, and C is k×n. Used for weight
// gradients: dW += Xᵀ·dY. C must not alias A or B.
func GemmATB(c, a, b []float64, m, k, n int, accumulate bool) {
	checkDims("GemmATB A", len(a), m*k)
	checkDims("GemmATB B", len(b), m*n)
	checkDims("GemmATB C", len(c), k*n)
	if k == 0 || n == 0 {
		return
	}
	if m == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	if useAVX && n >= 8 {
		gemmATBAVX(c, a, b, m, k, n, accumulate)
		return
	}
	if m >= gemmATBPanelMin {
		gemmATBPanels(c, a, b, m, k, n, accumulate)
		return
	}
	p := 0
	for ; p+gemmMR <= k; p += gemmMR {
		c0 := c[p*n : (p+1)*n]
		c1 := c[(p+1)*n : (p+2)*n]
		j := 0
		for ; j+gemmNR <= n; j += gemmNR {
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				apair := a[ai : ai+2]
				a0p, a1p := apair[0], apair[1]
				ai += k
				brow := b[bi : bi+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				bi += n
				s00 += a0p * b0
				s01 += a0p * b1
				s02 += a0p * b2
				s03 += a0p * b3
				s10 += a1p * b0
				s11 += a1p * b1
				s12 += a1p * b2
				s13 += a1p * b3
			}
			if accumulate {
				c0[j] += s00
				c0[j+1] += s01
				c0[j+2] += s02
				c0[j+3] += s03
				c1[j] += s10
				c1[j+1] += s11
				c1[j+2] += s12
				c1[j+3] += s13
			} else {
				c0[j] = s00
				c0[j+1] = s01
				c0[j+2] = s02
				c0[j+3] = s03
				c1[j] = s10
				c1[j+1] = s11
				c1[j+2] = s12
				c1[j+3] = s13
			}
		}
		for ; j < n; j++ {
			var s0, s1 float64
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				bv := b[bi]
				bi += n
				s0 += a[ai] * bv
				s1 += a[ai+1] * bv
				ai += k
			}
			if accumulate {
				c0[j] += s0
				c1[j] += s1
			} else {
				c0[j] = s0
				c1[j] = s1
			}
		}
	}
	if p < k {
		crow := c[p*n : (p+1)*n]
		for j := 0; j < n; j++ {
			var s float64
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				s += a[ai] * b[bi]
				ai += k
				bi += n
			}
			if accumulate {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

// gemmATBAVX tiles the k×n result into 4×8 (and 1×8) blocks handled by
// the FMA microkernels, reducing over the m rows of A and B; the column
// remainder falls back to scalar dots.
func gemmATBAVX(c, a, b []float64, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	kMain := k &^ 3
	nMain := n &^ 7
	for p := 0; p < kMain; p += 4 {
		for j := 0; j < nMain; j += 8 {
			atbKernel4x8(&a[p], k, &b[j], n, &c[p*n+j], n, m)
		}
	}
	for p := kMain; p < k; p++ {
		for j := 0; j < nMain; j += 8 {
			atbKernel1x8(&a[p], k, &b[j], n, &c[p*n+j], m)
		}
	}
	if nMain == n {
		return
	}
	for p := 0; p < k; p++ {
		crow := c[p*n : (p+1)*n]
		for j := nMain; j < n; j++ {
			var s float64
			ai := p
			bi := j
			for i := 0; i < m; i++ {
				s += a[ai] * b[bi]
				ai += k
				bi += n
			}
			crow[j] += s
		}
	}
}

// gemmATBPanels is the long-reduction form of GemmATB: rank-1 updates of
// four C rows at a time, so each B row loaded from memory feeds four
// multiply-add chains while the 4×n C panel stays cache-hot across the
// whole m sweep.
func gemmATBPanels(c, a, b []float64, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero(c)
	}
	p := 0
	for ; p+4 <= k; p += 4 {
		c0 := c[(p+0)*n : (p+1)*n]
		c1 := c[(p+1)*n : (p+2)*n]
		c2 := c[(p+2)*n : (p+3)*n]
		c3 := c[(p+3)*n : (p+4)*n]
		for i := 0; i < m; i++ {
			a0, a1, a2, a3 := a[i*k+p], a[i*k+p+1], a[i*k+p+2], a[i*k+p+3]
			brow := b[i*n : i*n+n]
			for j, bv := range brow {
				c0[j] += a0 * bv
				c1[j] += a1 * bv
				c2[j] += a2 * bv
				c3[j] += a3 * bv
			}
		}
	}
	for ; p < k; p++ {
		crow := c[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			ap := a[i*k+p]
			brow := b[i*n : i*n+n]
			for j, bv := range brow {
				crow[j] += ap * bv
			}
		}
	}
}

// GemmABT computes C = A·Bᵀ (or C += A·Bᵀ when accumulate is true) where
// A is m×k, B is n×k (so Bᵀ is k×n), and C is m×n. Used for input
// gradients: dX = dY·Wᵀ. Both operands are traversed along contiguous
// rows, so this is the pure dot-product instance of the register tile.
// C must not alias A or B.
func GemmABT(c, a, b []float64, m, k, n int, accumulate bool) {
	checkDims("GemmABT A", len(a), m*k)
	checkDims("GemmABT B", len(b), n*k)
	checkDims("GemmABT C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero(c)
		}
		return
	}
	gemmABTBatch(c, a, b, 1, m, k, n, accumulate)
}

// GemmABTBatch accumulates C += Σ_s A_s·B_sᵀ over batch samples, where a
// holds the batch m×k matrices A_s back to back, b the n×k matrices B_s,
// and C is m×n. The samples are added in order, each C element receiving
// exactly the arithmetic of batch sequential GemmABT(C, A_s, B_s, m, k,
// n, true) calls — so a convolution's weight gradient, summed over a
// mini-batch, is bit-identical to the per-sample loop it replaces. C must
// not alias A or B.
func GemmABTBatch(c, a, b []float64, batch, m, k, n int) {
	checkDims("GemmABTBatch A", len(a), batch*m*k)
	checkDims("GemmABTBatch B", len(b), batch*n*k)
	checkDims("GemmABTBatch C", len(c), m*n)
	if batch == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	gemmABTBatch(c, a, b, batch, m, k, n, true)
}

// negZero is -0.0, the additive identity bit for bit: -0 + x == x for
// every x, +0 included, and a computed dot product is never a signaling
// NaN. Overwriting C with a dot product is therefore accumulating it onto
// -0, which lets one set of accumulating kernels serve both modes of
// GemmABT: the SIMD tile and the scalar edges start from -0 instead of
// C, and the pure-Go tiles run on a C filled with -0.
var negZero = math.Copysign(0, -1)

// gemmABTBatch is GemmABTBatch without the checks; accumulate == false
// (overwrite C) is only meaningful for batch 1.
func gemmABTBatch(c, a, b []float64, batch, m, k, n int, accumulate bool) {
	if useAVX && k >= 4 {
		gemmABTBatchAVX(c, a, b, batch, m, k, n, accumulate)
		return
	}
	if !accumulate {
		Fill(c, negZero)
	}
	for s := 0; s < batch; s++ {
		gemmABTTiles(c, a[s*m*k:(s+1)*m*k], b[s*n*k:(s+1)*n*k], m, k, n)
	}
}

// gemmABTTiles is the pure-Go C += A·Bᵀ: 2×4 register tiles of dot
// products, scalar dots on the row and column edges.
func gemmABTTiles(c, a, b []float64, m, k, n int) {
	i := 0
	for ; i+gemmMR <= m; i += gemmMR {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)]
		j := 0
		for ; j+gemmNR <= n; j += gemmNR {
			b0 := b[(j+0)*k : (j+1)*k][:len(a0)]
			b1 := b[(j+1)*k : (j+2)*k][:len(a0)]
			b2 := b[(j+2)*k : (j+3)*k][:len(a0)]
			b3 := b[(j+3)*k : (j+4)*k][:len(a0)]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p, a0p := range a0 {
				a1p := a1[p]
				b0p, b1p, b2p, b3p := b0[p], b1[p], b2[p], b3[p]
				s00 += a0p * b0p
				s01 += a0p * b1p
				s02 += a0p * b2p
				s03 += a0p * b3p
				s10 += a1p * b0p
				s11 += a1p * b1p
				s12 += a1p * b2p
				s13 += a1p * b3p
			}
			c[i*n+j] += s00
			c[i*n+j+1] += s01
			c[i*n+j+2] += s02
			c[i*n+j+3] += s03
			c[(i+1)*n+j] += s10
			c[(i+1)*n+j+1] += s11
			c[(i+1)*n+j+2] += s12
			c[(i+1)*n+j+3] += s13
		}
		abtEdge(c, a, b, 1, i, i+2, j, m, k, n, true)
	}
	abtEdge(c, a, b, 1, i, m, 0, m, k, n, true)
}

// gemmABTBatchAVX runs the batched FMA kernel over the 2×4 tiles, which
// walks every sample with the tile of C held in registers; the row and
// column edges are scalar dots, added in sample order as well.
func gemmABTBatchAVX(c, a, b []float64, batch, m, k, n int, accumulate bool) {
	mMain := m &^ 1
	nMain := n &^ 3
	load := 0
	if accumulate {
		load = 1
	}
	for i := 0; i < mMain; i += 2 {
		for j := 0; j < nMain; j += 4 {
			abtKernel2x4Batch(&a[i*k], &b[j*k], k, batch, m*k, n*k, &c[i*n+j], n, load)
		}
	}
	abtEdge(c, a, b, batch, 0, mMain, nMain, m, k, n, accumulate)
	abtEdge(c, a, b, batch, mMain, m, 0, m, k, n, accumulate)
}

// abtEdge adds into C the scalar dot products of the A_s rows [i0, i1)
// with the B_s rows [j0, n), sample after sample: each dot accumulates
// a·b from zero, then C += dot. With accumulate false, C starts from -0
// instead of its contents. Rows go in pairs, two independent chains.
func abtEdge(c, a, b []float64, batch, i0, i1, j0, m, k, n int, accumulate bool) {
	for j := j0; j < n; j++ {
		i := i0
		for ; i+1 < i1; i += 2 {
			c0, c1 := negZero, negZero
			if accumulate {
				c0, c1 = c[i*n+j], c[(i+1)*n+j]
			}
			for s := 0; s < batch; s++ {
				a0 := a[s*m*k+i*k:][:k]
				a1 := a[s*m*k+(i+1)*k:][:k]
				brow := b[s*n*k+j*k:][:k]
				var s0, s1 float64
				for p, bp := range brow {
					s0 += a0[p] * bp
					s1 += a1[p] * bp
				}
				c0 += s0
				c1 += s1
			}
			c[i*n+j], c[(i+1)*n+j] = c0, c1
		}
		if i < i1 {
			c0 := negZero
			if accumulate {
				c0 = c[i*n+j]
			}
			for s := 0; s < batch; s++ {
				arow := a[s*m*k+i*k:][:k]
				brow := b[s*n*k+j*k:][:k]
				var s0 float64
				for p, bp := range brow {
					s0 += arow[p] * bp
				}
				c0 += s0
			}
			c[i*n+j] = c0
		}
	}
}

// MatMul computes C = A·B where A is m×k, B is k×n, and C is m×n.
// C must not alias A or B. It is Gemm without accumulation, kept for
// callers that predate the accumulate flag.
func MatMul(c, a, b []float64, m, k, n int) {
	Gemm(c, a, b, m, k, n, false)
}

// MatMulATB computes C = Aᵀ·B where A is m×k (so Aᵀ is k×m), B is m×n,
// and C is k×n. C must not alias A or B.
func MatMulATB(c, a, b []float64, m, k, n int) {
	GemmATB(c, a, b, m, k, n, false)
}

// MatMulABT computes C = A·Bᵀ where A is m×k, B is n×k (so Bᵀ is k×n),
// and C is m×n. C must not alias A or B.
func MatMulABT(c, a, b []float64, m, k, n int) {
	GemmABT(c, a, b, m, k, n, false)
}

// AddRowVector adds the length-n vector v to each of the m rows of the
// m×n matrix a in place. Used to apply biases to a batch.
func AddRowVector(a, v []float64, m, n int) {
	checkDims("AddRowVector A", len(a), m*n)
	checkDims("AddRowVector v", len(v), n)
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, vj := range v {
			row[j] += vj
		}
	}
}

// SumRows accumulates the column sums of the m×n matrix a into the length-n
// vector dst (dst[j] = Σ_i a[i][j]). Used for bias gradients.
func SumRows(dst, a []float64, m, n int) {
	checkDims("SumRows dst", len(dst), n)
	Zero(dst)
	SumRowsAcc(dst, a, m, n)
}

// SumRowsAcc is SumRows without the initial clear: dst[j] += Σ_i a[i][j].
// Layers use it to fold bias gradients straight into the gradient vector.
func SumRowsAcc(dst, a []float64, m, n int) {
	checkDims("SumRowsAcc A", len(a), m*n)
	checkDims("SumRowsAcc dst", len(dst), n)
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v
		}
	}
}
