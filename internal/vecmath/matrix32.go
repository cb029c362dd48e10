package vecmath

// Float32 twins of the GEMM entry points in matrix.go, used by the fp32
// training path. The design is identical — register-tiled kernels with an
// accumulate flag, AVX2+FMA microkernels on amd64 behind the same CPUID
// gate, pure-Go 2×4 register tiles elsewhere and for remainders — but the
// assembly runs 8 float32 lanes per YMM register instead of 4 float64
// lanes, so the main tiles are 4×16/1×16 (two vectors per row) with a
// 4×8/1×8 column block for the 8..15-column remainder. That second block
// matters: the substrate's dense layers are narrow (8–48 columns), and
// without it they would fall to the scalar edge and run slower than the
// f64 path they are supposed to beat.

// Gemm32 computes C = A·B (or C += A·B when accumulate is true) where A
// is m×k, B is k×n, and C is m×n. C must not alias A or B.
func Gemm32(c, a, b []float32, m, k, n int, accumulate bool) {
	checkDims("Gemm32 A", len(a), m*k)
	checkDims("Gemm32 B", len(b), k*n)
	checkDims("Gemm32 C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero32(c)
		}
		return
	}
	if useAVX && n >= 8 {
		gemm32AVX(c, a, b, m, k, n, accumulate)
		return
	}
	gemm32Generic(c, a, b, m, k, n, accumulate)
}

// gemm32AVX tiles C into 4×16 (and 1×16) blocks handled by the FMA
// microkernels, with one 4×8/1×8 block for an 8-wide column remainder;
// the final sub-8 columns fall back to scalar dots. The kernels
// accumulate unconditionally, so C is cleared first unless the caller
// asked for accumulation.
func gemm32AVX(c, a, b []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero32(c)
	}
	mMain := m &^ 3
	n16 := n &^ 15
	n8 := n &^ 7
	for i := 0; i < mMain; i += 4 {
		for j := 0; j < n16; j += 16 {
			gemm32Kernel4x16(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &b[j], n, &c[i*n+j], n, k)
		}
		if n8 > n16 {
			gemm32Kernel4x8(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &b[n16], n, &c[i*n+n16], n, k)
		}
	}
	for i := mMain; i < m; i++ {
		for j := 0; j < n16; j += 16 {
			gemm32Kernel1x16(&a[i*k], &b[j], n, &c[i*n+j], k)
		}
		if n8 > n16 {
			gemm32Kernel1x8(&a[i*k], &b[n16], n, &c[i*n+n16], k)
		}
	}
	if n8 == n {
		return
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := n8; j < n; j++ {
			var s float32
			idx := j
			for _, ap := range arow {
				s += ap * b[idx]
				idx += n
			}
			crow[j] += s
		}
	}
}

// gemm32Generic mirrors gemmGeneric: 2×4 register tiles with the
// reduction dimension blocked by gemmKC.
func gemm32Generic(c, a, b []float32, m, k, n int, accumulate bool) {
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
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
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
				var s0, s1 float32
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
			for j := 0; j < n; j++ {
				var s float32
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

// GemmATB32 computes C = Aᵀ·B (or C += Aᵀ·B when accumulate is true)
// where A is m×k (so Aᵀ is k×m), B is m×n, and C is k×n. C must not
// alias A or B.
func GemmATB32(c, a, b []float32, m, k, n int, accumulate bool) {
	checkDims("GemmATB32 A", len(a), m*k)
	checkDims("GemmATB32 B", len(b), m*n)
	checkDims("GemmATB32 C", len(c), k*n)
	if k == 0 || n == 0 {
		return
	}
	if m == 0 {
		if !accumulate {
			Zero32(c)
		}
		return
	}
	if useAVX && n >= 8 {
		gemmATB32AVX(c, a, b, m, k, n, accumulate)
		return
	}
	if m >= gemmATBPanelMin {
		gemmATB32Panels(c, a, b, m, k, n, accumulate)
		return
	}
	p := 0
	for ; p+gemmMR <= k; p += gemmMR {
		c0 := c[p*n : (p+1)*n]
		c1 := c[(p+1)*n : (p+2)*n]
		for j := 0; j < n; j++ {
			var s0, s1 float32
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
			var s float32
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

// gemmATB32AVX tiles the k×n result into 4×16/1×16 blocks with an
// 8-wide column remainder, reducing over the m rows of A and B; the
// sub-8 column tail falls back to scalar dots.
func gemmATB32AVX(c, a, b []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero32(c)
	}
	kMain := k &^ 3
	n16 := n &^ 15
	n8 := n &^ 7
	for p := 0; p < kMain; p += 4 {
		for j := 0; j < n16; j += 16 {
			atb32Kernel4x16(&a[p], k, &b[j], n, &c[p*n+j], n, m)
		}
		if n8 > n16 {
			atb32Kernel4x8(&a[p], k, &b[n16], n, &c[p*n+n16], n, m)
		}
	}
	for p := kMain; p < k; p++ {
		for j := 0; j < n16; j += 16 {
			atb32Kernel1x16(&a[p], k, &b[j], n, &c[p*n+j], m)
		}
		if n8 > n16 {
			atb32Kernel1x8(&a[p], k, &b[n16], n, &c[p*n+n16], m)
		}
	}
	if n8 == n {
		return
	}
	for p := 0; p < k; p++ {
		crow := c[p*n : (p+1)*n]
		for j := n8; j < n; j++ {
			var s float32
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

// gemmATB32Panels mirrors gemmATBPanels: rank-1 updates of four C rows at
// a time for long reductions.
func gemmATB32Panels(c, a, b []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		Zero32(c)
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

// GemmABT32 computes C = A·Bᵀ (or C += A·Bᵀ when accumulate is true)
// where A is m×k, B is n×k (so Bᵀ is k×n), and C is m×n. C must not
// alias A or B.
func GemmABT32(c, a, b []float32, m, k, n int, accumulate bool) {
	checkDims("GemmABT32 A", len(a), m*k)
	checkDims("GemmABT32 B", len(b), n*k)
	checkDims("GemmABT32 C", len(c), m*n)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			Zero32(c)
		}
		return
	}
	gemmABT32Batch(c, a, b, 1, m, k, n, accumulate)
}

// GemmABTBatch32 is the float32 GemmABTBatch: C += Σ_s A_s·B_sᵀ in sample
// order, bit-identical to batch sequential GemmABT32(accumulate=true)
// calls.
func GemmABTBatch32(c, a, b []float32, batch, m, k, n int) {
	checkDims("GemmABTBatch32 A", len(a), batch*m*k)
	checkDims("GemmABTBatch32 B", len(b), batch*n*k)
	checkDims("GemmABTBatch32 C", len(c), m*n)
	if batch == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	gemmABT32Batch(c, a, b, batch, m, k, n, true)
}

// negZero32 is the float32 negZero.
var negZero32 = float32(negZero)

// gemmABT32Batch is GemmABTBatch32 without the checks; accumulate ==
// false (overwrite C) is only meaningful for batch 1.
func gemmABT32Batch(c, a, b []float32, batch, m, k, n int, accumulate bool) {
	if useAVX && k >= 8 {
		gemmABT32BatchAVX(c, a, b, batch, m, k, n, accumulate)
		return
	}
	if !accumulate {
		for i := range c {
			c[i] = negZero32
		}
	}
	for s := 0; s < batch; s++ {
		gemmABT32Tiles(c, a[s*m*k:(s+1)*m*k], b[s*n*k:(s+1)*n*k], m, k, n)
	}
}

// gemmABT32Tiles is the pure-Go C += A·Bᵀ: 2×4 register tiles of dot
// products, scalar dots on the row and column edges.
func gemmABT32Tiles(c, a, b []float32, m, k, n int) {
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
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
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
		abt32Edge(c, a, b, 1, i, i+2, j, m, k, n, true)
	}
	abt32Edge(c, a, b, 1, i, m, 0, m, k, n, true)
}

// gemmABT32BatchAVX runs the batched FMA kernel over the 2×4 tiles; the
// row and column edges are scalar dots, added in sample order as well.
func gemmABT32BatchAVX(c, a, b []float32, batch, m, k, n int, accumulate bool) {
	mMain := m &^ 1
	nMain := n &^ 3
	load := 0
	if accumulate {
		load = 1
	}
	for i := 0; i < mMain; i += 2 {
		for j := 0; j < nMain; j += 4 {
			abt32Kernel2x4Batch(&a[i*k], &b[j*k], k, batch, m*k, n*k, &c[i*n+j], n, load)
		}
	}
	abt32Edge(c, a, b, batch, 0, mMain, nMain, m, k, n, accumulate)
	abt32Edge(c, a, b, batch, mMain, m, 0, m, k, n, accumulate)
}

// abt32Edge is the float32 abtEdge.
func abt32Edge(c, a, b []float32, batch, i0, i1, j0, m, k, n int, accumulate bool) {
	for j := j0; j < n; j++ {
		i := i0
		for ; i+1 < i1; i += 2 {
			c0, c1 := negZero32, negZero32
			if accumulate {
				c0, c1 = c[i*n+j], c[(i+1)*n+j]
			}
			for s := 0; s < batch; s++ {
				a0 := a[s*m*k+i*k:][:k]
				a1 := a[s*m*k+(i+1)*k:][:k]
				brow := b[s*n*k+j*k:][:k]
				var s0, s1 float32
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
			c0 := negZero32
			if accumulate {
				c0 = c[i*n+j]
			}
			for s := 0; s < batch; s++ {
				arow := a[s*m*k+i*k:][:k]
				brow := b[s*n*k+j*k:][:k]
				var s0 float32
				for p, bp := range brow {
					s0 += arow[p] * bp
				}
				c0 += s0
			}
			c[i*n+j] = c0
		}
	}
}
