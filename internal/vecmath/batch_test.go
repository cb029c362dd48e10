package vecmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// spreadMat draws entries whose magnitudes span several decades, so a
// change in the order of the additions almost surely changes the rounded
// result: the batched kernels are pinned bit for bit, not to a tolerance.
func spreadMat(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = rng.NormFloat64() * math.Exp(3*rng.NormFloat64())
	}
	return m
}

func narrow32(x []float64) []float32 {
	out := make([]float32, len(x))
	Narrow(out, x)
	return out
}

func firstBitDiff[F float32 | float64](a, b []F) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// batchShapes covers both kernel sets' edges: odd m (the scalar last
// row), n%4 != 0 (the scalar column edge), k below, at and between the
// SIMD widths (k%4 != 0 and k%8 != 0 take the scalar k tail; k = 27
// runs an odd number of 8-wide float32 steps), and the fmnist conv
// shapes.
var batchShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {2, 4, 4}, {3, 5, 5}, {2, 8, 4}, {5, 9, 7},
	{6, 13, 9}, {7, 17, 3}, {4, 3, 8}, {6, 64, 9}, {12, 16, 54},
	{6, 9, 64}, {12, 54, 16}, {5, 9, 24}, {7, 3, 19}, {3, 27, 6},
}

// TestGemmABTBatchMatchesSequential pins GemmABTBatch and GemmABTBatch32
// to batch sequential GemmABT/GemmABT32(accumulate=true) calls, bit for
// bit: each sample's partial dot products must reach C one sample after
// another, exactly as the per-sample loop added them.
func TestGemmABTBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, sh := range batchShapes {
		for _, batch := range []int{1, 2, 7} {
			m, k, n := sh.m, sh.k, sh.n
			a := spreadMat(rng, batch*m*k)
			b := spreadMat(rng, batch*n*k)
			c0 := spreadMat(rng, m*n)

			got := append([]float64(nil), c0...)
			GemmABTBatch(got, a, b, batch, m, k, n)
			want := append([]float64(nil), c0...)
			for s := 0; s < batch; s++ {
				GemmABT(want, a[s*m*k:(s+1)*m*k], b[s*n*k:(s+1)*n*k], m, k, n, true)
			}
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("f64 m=%d k=%d n=%d batch=%d: c[%d] = %v, sequential %v", m, k, n, batch, i, got[i], want[i])
			}

			a32, b32 := narrow32(a), narrow32(b)
			got32 := narrow32(c0)
			GemmABTBatch32(got32, a32, b32, batch, m, k, n)
			want32 := narrow32(c0)
			for s := 0; s < batch; s++ {
				GemmABT32(want32, a32[s*m*k:(s+1)*m*k], b32[s*n*k:(s+1)*n*k], m, k, n, true)
			}
			if i := firstBitDiff(got32, want32); i >= 0 {
				t.Fatalf("f32 m=%d k=%d n=%d batch=%d: c[%d] = %v, sequential %v", m, k, n, batch, i, got32[i], want32[i])
			}
		}
	}
}

// TestGemmABTOverwrite pins the overwrite mode, which accumulates onto -0:
// the result must not depend on C's prior contents, and a dot product
// that underflows to -0 must come out as -0. Starting from +0 instead
// would turn it into +0. On the SIMD path every lane's FMA chain of
// tiny negative products rounds to -0; the scalar path rounds each
// product to -0 first and adds it to +0, so there the dot is +0.
func TestGemmABTOverwrite(t *testing.T) {
	negZero64 := math.Copysign(0, -1)
	for _, sh := range []struct{ m, k, n int }{{2, 8, 4}, {3, 9, 5}, {2, 3, 4}} {
		m, k, n := sh.m, sh.k, sh.n
		a := make([]float64, m*k)
		b := make([]float64, n*k)
		for i := range a {
			a[i] = -1e-170
		}
		for i := range b {
			b[i] = 1e-170
		}
		c := make([]float64, m*n)
		Fill(c, math.NaN())
		GemmABT(c, a, b, m, k, n, false)
		ref := make([]float64, m*n)
		Fill(ref, negZero64)
		GemmABT(ref, a, b, m, k, n, true)
		if i := firstBitDiff(c, ref); i >= 0 {
			t.Fatalf("f64 %+v: overwrite c[%d] = %v, accumulate onto -0 gives %v", sh, i, c[i], ref[i])
		}
		if useAVX && k >= 4 && !math.Signbit(c[0]) {
			t.Fatalf("f64 %+v: SIMD dot of underflowing negative products = %v, want -0", sh, c[0])
		}

		a32, b32 := make([]float32, m*k), make([]float32, n*k)
		for i := range a32 {
			a32[i] = -1e-30
		}
		for i := range b32 {
			b32[i] = 1e-30
		}
		c32 := make([]float32, m*n)
		for i := range c32 {
			c32[i] = float32(math.NaN())
		}
		GemmABT32(c32, a32, b32, m, k, n, false)
		ref32 := make([]float32, m*n)
		for i := range ref32 {
			ref32[i] = negZero32
		}
		GemmABT32(ref32, a32, b32, m, k, n, true)
		if i := firstBitDiff(c32, ref32); i >= 0 {
			t.Fatalf("f32 %+v: overwrite c[%d] = %v, accumulate onto -0 gives %v", sh, i, c32[i], ref32[i])
		}
		if useAVX && k >= 8 && !math.Signbit(float64(c32[0])) {
			t.Fatalf("f32 %+v: SIMD dot of underflowing negative products = %v, want -0", sh, c32[0])
		}
	}
}

// TestGemmABTMatchesModel pins the arithmetic that GemmABT and
// GemmABTBatch share, in both dtypes, to abtModel, a statement of it
// written independently of the kernels. Comparing the batched kernel
// with sequential GemmABT calls alone would not catch a reduction or
// tail order that changed in both at once.
func TestGemmABTMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	lanes64, lanes32 := 0, 0
	if useAVX {
		lanes64, lanes32 = 4, 8
	}
	for _, sh := range batchShapes {
		for _, batch := range []int{1, 2, 7} {
			m, k, n := sh.m, sh.k, sh.n
			a := spreadMat(rng, batch*m*k)
			b := spreadMat(rng, batch*n*k)
			c0 := spreadMat(rng, m*n)
			checkABTModel(t, a, b, c0, batch, m, k, n, lanes64, math.FMA, GemmABT, GemmABTBatch)
			checkABTModel(t, narrow32(a), narrow32(b), narrow32(c0), batch, m, k, n, lanes32, fma32, GemmABT32, GemmABTBatch32)
		}
	}
}

func checkABTModel[F float32 | float64](t *testing.T, a, b, c0 []F, batch, m, k, n, lanes int, fma func(x, y, z F) F,
	gemmABT func(c, a, b []F, m, k, n int, accumulate bool), gemmABTBatch func(c, a, b []F, batch, m, k, n int)) {
	t.Helper()
	want := append([]F(nil), c0...)
	abtModel(want, a, b, batch, m, k, n, lanes, fma)
	got := append([]F(nil), c0...)
	gemmABTBatch(got, a, b, batch, m, k, n)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%T batch m=%d k=%d n=%d batch=%d: c[%d] = %v, model %v", F(0), m, k, n, batch, i, got[i], want[i])
	}
	if batch != 1 {
		return
	}
	got = append(got[:0], c0...)
	gemmABT(got, a, b, m, k, n, true)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%T accumulate m=%d k=%d n=%d: c[%d] = %v, model %v", F(0), m, k, n, i, got[i], want[i])
	}
	// Overwriting C is accumulating onto -0.
	for i := range want {
		want[i] = F(math.Copysign(0, -1))
		got[i] = F(math.NaN())
	}
	abtModel(want, a, b, 1, m, k, n, lanes, fma)
	gemmABT(got, a, b, m, k, n, false)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%T overwrite m=%d k=%d n=%d: c[%d] = %v, model %v", F(0), m, k, n, i, got[i], want[i])
	}
}

// abtModel computes C += Σ_s A_s·B_sᵀ with the arithmetic of the ABT
// kernels: each sample's dot products are added into C one sample after
// another. A dot on a SIMD tile (rows below m&^1 and columns below n&^3,
// with lanes > 0 and k ≥ lanes) is laneDot; every other dot is one
// product-by-product chain from +0, each product rounded before the add.
func abtModel[F float32 | float64](c, a, b []F, batch, m, k, n, lanes int, fma func(x, y, z F) F) {
	simd := lanes > 0 && k >= lanes
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			tile := simd && i < m&^1 && j < n&^3
			for s := 0; s < batch; s++ {
				arow := a[s*m*k+i*k:][:k]
				brow := b[s*n*k+j*k:][:k]
				var d F
				if tile {
					d = laneDot(arow, brow, lanes, fma)
				} else {
					for p := range arow {
						d += F(arow[p] * brow[p])
					}
				}
				c[i*n+j] += d
			}
		}
	}
}

// laneDot is one dot product of a SIMD tile: lanes FMA chains from +0
// over the multiple-of-lanes prefix of x, reduced by adding the high
// half of the lanes onto the low half and then adjacent pairs, followed
// by the k tail, product by product (multiply, then add).
func laneDot[F float32 | float64](x, y []F, lanes int, fma func(x, y, z F) F) F {
	acc := make([]F, lanes)
	kw := len(x) - len(x)%lanes
	for p := 0; p < kw; p += lanes {
		for l := range acc {
			acc[l] = fma(x[p+l], y[p+l], acc[l])
		}
	}
	h := lanes / 2
	for l := 0; l < h; l++ {
		acc[l] += acc[l+h]
	}
	for w := h; w > 1; w /= 2 {
		for l := 0; l < w/2; l++ {
			acc[l] = acc[2*l] + acc[2*l+1]
		}
	}
	d := acc[0]
	for p := kw; p < len(x); p++ {
		d = F(x[p]*y[p]) + d
	}
	return d
}

// fma32 is the float32 fused multiply-add x·y+z, rounded once. The
// product of two float32 values is exact in float64. The sum is rounded
// to float64 by round-to-odd: round to nearest, and if that was inexact
// and landed on an even significand, step to the odd neighbour on the
// side of the exact value. With 29 spare bits, rounding that result to
// float32 is correctly rounded; plain round-to-nearest twice is not.
func fma32(x, y, z float32) float32 {
	p, q := float64(x)*float64(y), float64(z)
	s := p + q
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return float32(s)
	}
	bq := s - p // TwoSum: e is the exact error (p+q) - s
	e := (p - (s - bq)) + (q - bq)
	if bits := math.Float64bits(s); e != 0 && bits&1 == 0 {
		if (e > 0) == (s > 0) {
			bits++
		} else {
			bits--
		}
		s = math.Float64frombits(bits)
	}
	return float32(s)
}
