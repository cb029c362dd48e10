package nn

import (
	"math"

	"repro/internal/vecmath"
)

// Float is the compute-precision constraint for the generic layer bodies.
// Both instantiations share one gcshape (slices), so the dispatch shims
// below compile to a single body with a dictionary-resolved type switch —
// no allocation on the hot path (pinned by TestGenericDispatchAllocs).
type Float interface {
	float32 | float64
}

// The GEMM shims route each precision to its assembly-backed vecmath
// entry point. For every other helper the two precisions run the same
// plain Go loop, so the float64 instantiation performs bit-identical
// arithmetic to the pre-generic layer code (same operations, same order).

func gemm[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	switch cc := any(c).(type) {
	case []float64:
		vecmath.Gemm(cc, any(a).([]float64), any(b).([]float64), m, k, n, accumulate)
	case []float32:
		vecmath.Gemm32(cc, any(a).([]float32), any(b).([]float32), m, k, n, accumulate)
	}
}

func gemmATB[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	switch cc := any(c).(type) {
	case []float64:
		vecmath.GemmATB(cc, any(a).([]float64), any(b).([]float64), m, k, n, accumulate)
	case []float32:
		vecmath.GemmATB32(cc, any(a).([]float32), any(b).([]float32), m, k, n, accumulate)
	}
}

func gemmABT[F Float](c, a, b []F, m, k, n int, accumulate bool) {
	switch cc := any(c).(type) {
	case []float64:
		vecmath.GemmABT(cc, any(a).([]float64), any(b).([]float64), m, k, n, accumulate)
	case []float32:
		vecmath.GemmABT32(cc, any(a).([]float32), any(b).([]float32), m, k, n, accumulate)
	}
}

// gemmABTBatch serves the convolution's weight gradient, which sums the
// samples' products in one walk over the mini-batch (see conv2d); it is
// bit-identical to one accumulating gemmABT call per sample.
func gemmABTBatch[F Float](c, a, b []F, batch, m, k, n int) {
	switch cc := any(c).(type) {
	case []float64:
		vecmath.GemmABTBatch(cc, any(a).([]float64), any(b).([]float64), batch, m, k, n)
	case []float32:
		vecmath.GemmABTBatch32(cc, any(a).([]float32), any(b).([]float32), batch, m, k, n)
	}
}

func zeroF[F Float](x []F) {
	for i := range x {
		x[i] = 0
	}
}

// addF computes dst[i] = a[i] + b[i] (vecmath.Add's loop). The float32
// instantiation routes to the AVX2 kernel; elementwise adds are order-
// independent, so the float64 scalar loop stays as the golden reference.
func addF[F Float](dst, a, b []F) {
	switch d := any(dst).(type) {
	case []float32:
		vecmath.Add32(d, any(a).([]float32), any(b).([]float32))
	default:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	}
}

// addRowVectorF adds the length-n vector v to each of the m rows of a.
// Under float32 each row add is one in-place vecmath.Add32 (8 lanes/iter
// instead of a scalar loop); same-index aliasing is safe for elementwise
// kernels.
func addRowVectorF[F Float](a, v []F, m, n int) {
	if as, ok := any(a).([]float32); ok {
		vs := any(v).([]float32)
		for i := 0; i < m; i++ {
			row := as[i*n : (i+1)*n]
			vecmath.Add32(row, row, vs)
		}
		return
	}
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, vj := range v {
			row[j] += vj
		}
	}
}

// sumRowsAccF accumulates column sums: dst[j] += Σ_i a[i][j]. The row
// order of the accumulation is preserved by both bodies — the float32
// path folds each row into dst with one vectorized add, which is the
// same per-column add sequence as the scalar loop.
func sumRowsAccF[F Float](dst, a []F, m, n int) {
	if ds, ok := any(dst).([]float32); ok {
		as := any(a).([]float32)
		for i := 0; i < m; i++ {
			vecmath.Add32(ds, ds, as[i*n:(i+1)*n])
		}
		return
	}
	for i := 0; i < m; i++ {
		row := a[i*n : (i+1)*n]
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Scalar transcendentals evaluate in float64 and round once to F: for
// F=float64 the conversions are identities, so the float64 path is
// unchanged; for F=float32 one correctly-rounded narrowing replaces a
// whole f32 libm.

func sigmoidF[F Float](x F) F {
	return F(1 / (1 + math.Exp(-float64(x))))
}

func tanhF[F Float](x F) F {
	return F(math.Tanh(float64(x)))
}
