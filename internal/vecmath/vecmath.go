// Package vecmath provides the flat-vector and small-matrix primitives used
// throughout the repository. Federated-learning algorithms in this codebase
// exchange model updates as flat []float64 slices, so the hot operations are
// BLAS-level-1 style kernels (axpy, dot, norms, cosine similarity) plus the
// row-major GEMM kernels (matrix.go) that the neural-network substrate in
// internal/nn lowers every dense, convolutional (via im2col), and recurrent
// layer onto.
//
// # GEMM kernels and knobs
//
// Gemm, GemmATB, and GemmABT are register-tiled matrix products with an
// accumulate flag (C = A·B or C += A·B). On amd64 with AVX2+FMA the main
// tiles run in assembly microkernels (gemm_amd64.s), detected once via
// CPUID; everywhere else, and for tile remainders, pure-Go 2×4 register
// tiles are used. The tunable knobs are the constants in matrix.go:
// gemmKC (reduction-dimension cache block of the pure-Go Gemm) and
// gemmATBPanelMin (reduction length at which the pure-Go GemmATB switches
// to rank-1 row panels); gemmMR/gemmNR merely document the fixed 2×4 tile
// shape baked into the unrolled loop bodies. After changing a knob,
// re-run at the repository root
//
//	go test ./internal/vecmath/ && go test -bench 'BenchmarkGEMM|BenchmarkGradEval' -benchtime 1x .
//
// to re-validate numerics and measure the effect; BenchmarkGEMM reports
// flops/s for the shapes the substrate actually runs. DESIGN.md §2
// documents the blocking scheme and the layer/scratch/engine contract
// built on top of these kernels.
//
// All functions treat nil and empty slices as zero-length vectors. Functions
// that combine two vectors panic when the lengths differ: a length mismatch
// is a programming error in this codebase (parameter vectors for one model
// always have one fixed length), not a recoverable condition.
package vecmath

import (
	"fmt"
	"math"
)

// checkLen panics when two vectors that must be conformable are not.
func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vecmath: %s: length mismatch %d != %d", op, a, b))
	}
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Add computes dst[i] = a[i] + b[i]. dst may alias a or b.
func Add(dst, a, b []float64) {
	checkLen("Add", len(a), len(b))
	checkLen("Add", len(dst), len(a))
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst[i] = a[i] - b[i]. dst may alias a or b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", len(a), len(b))
	checkLen("Sub", len(dst), len(a))
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AXPY computes y[i] += alpha * x[i] (the classic BLAS axpy kernel).
func AXPY(alpha float64, x, y []float64) {
	checkLen("AXPY", len(x), len(y))
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// AddConst computes x[i] += alpha in place. Used to apply per-channel
// biases to contiguous activation rows.
func AddConst(alpha float64, x []float64) {
	for i := range x {
		x[i] += alpha
	}
}

// Scale computes x[i] *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// ScaleTo computes dst[i] = alpha * x[i]. dst may alias x.
func ScaleTo(dst []float64, alpha float64, x []float64) {
	checkLen("ScaleTo", len(dst), len(x))
	for i, xi := range x {
		dst[i] = alpha * xi
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	checkLen("Dot", len(a), len(b))
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// Norm2Safe returns the Euclidean norm of x, rescaling by the largest
// magnitude first so the squared sum cannot overflow. Use it where inputs
// are not under the caller's control (for example uploaded client deltas).
func Norm2Safe(x []float64) float64 {
	m := MaxAbs(x)
	if m == 0 || math.IsInf(m, 0) {
		return m
	}
	inv := 1 / m
	var s float64
	for _, v := range x {
		sv := v * inv
		s += sv * sv
	}
	return m * math.Sqrt(s)
}

// Norm1 returns the sum of absolute values of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// MaxAbs returns the largest absolute element of x (0 for empty x).
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// CosineSimilarity returns cos(a, b) = a·b / (||a|| ||b||).
// When either vector has zero norm the similarity is defined as 0, matching
// the paper's convention that a degenerate gradient carries no direction.
// The computation rescales both vectors by their largest magnitude first so
// the result stays finite even when the raw squared norms would overflow.
func CosineSimilarity(a, b []float64) float64 {
	checkLen("CosineSimilarity", len(a), len(b))
	ma, mb := MaxAbs(a), MaxAbs(b)
	if ma == 0 || mb == 0 {
		return 0
	}
	invA, invB := 1/ma, 1/mb
	var dot, na, nb float64
	for i, ai := range a {
		sa := ai * invA
		sb := b[i] * invB
		dot += sa * sb
		na += sa * sa
		nb += sb * sb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return Clamp(dot/(math.Sqrt(na)*math.Sqrt(nb)), -1, 1)
}

// WeightedSum computes dst = Σ_i weights[i] * vecs[i]. All vectors must share
// dst's length. Zero weights skip their vector entirely, so expelled clients
// cost nothing.
func WeightedSum(dst []float64, weights []float64, vecs [][]float64) {
	checkLen("WeightedSum", len(weights), len(vecs))
	Zero(dst)
	for i, w := range weights {
		if w == 0 {
			continue
		}
		AXPY(w, vecs[i], dst)
	}
}

// L2DistanceSquared returns ||a-b||^2 without allocating.
func L2DistanceSquared(a, b []float64) float64 {
	checkLen("L2DistanceSquared", len(a), len(b))
	var s float64
	for i, ai := range a {
		d := ai - b[i]
		s += d * d
	}
	return s
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AllFinite reports whether every element of x is a finite number. FL runs
// use this to detect divergence (the paper's convergence-failure events).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Accelerated reports whether the AVX2+FMA assembly kernels are in use.
// Their results differ from the portable kernels' in the last bits, so
// tests that pin literal output hashes record one value per kernel path.
func Accelerated() bool { return useAVX }
