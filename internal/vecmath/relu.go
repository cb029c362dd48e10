package vecmath

import "math"

// Rectifier kernels for the nn activation layers: ReLU writes
// x > 0 ? x : +0 and ReLUGate x > 0 ? dy : +0, elementwise. Both are a
// compare-to-mask select, never a branch — a branch on the sign of fresh
// activations mispredicts on about half of them. The mask is all ones
// exactly when x > 0, so NaN and −0 select +0. On amd64 the head runs as
// AVX2 ordered greater-than compares ANDed onto the operand; the scalar
// tail builds the same mask with one CMOV. Nothing is rounded, so every
// build and lane width gives identical bits.

// ReLU computes dst[i] = x[i] > 0 ? x[i] : +0. dst may alias x.
func ReLU(dst, x []float64) {
	checkLen("ReLU", len(dst), len(x))
	n := len(dst)
	i := 0
	if useAVX && n >= fusedLanes {
		head := n &^ (fusedLanes - 1)
		reluKernel(&x[0], &dst[0], head)
		i = head
	}
	for ; i < n; i++ {
		v := x[i]
		dst[i] = math.Float64frombits(math.Float64bits(v) & posMask(v))
	}
}

// ReLUGate computes dst[i] = x[i] > 0 ? dy[i] : +0, the ReLU backward
// pass. dst may alias x or dy.
func ReLUGate(dst, x, dy []float64) {
	checkLen("ReLUGate", len(x), len(dy))
	checkLen("ReLUGate", len(dst), len(x))
	n := len(dst)
	i := 0
	if useAVX && n >= fusedLanes {
		head := n &^ (fusedLanes - 1)
		reluGateKernel(&x[0], &dy[0], &dst[0], head)
		i = head
	}
	for ; i < n; i++ {
		dst[i] = math.Float64frombits(math.Float64bits(dy[i]) & posMask(x[i]))
	}
}

// ReLU32 is ReLU for float32.
func ReLU32(dst, x []float32) {
	checkLen("ReLU32", len(dst), len(x))
	n := len(dst)
	i := 0
	if useAVX && n >= fusedLanes32 {
		head := n &^ (fusedLanes32 - 1)
		relu32Kernel(&x[0], &dst[0], head)
		i = head
	}
	for ; i < n; i++ {
		v := x[i]
		dst[i] = math.Float32frombits(math.Float32bits(v) & uint32(posMask(float64(v))))
	}
}

// ReLUGate32 is ReLUGate for float32.
func ReLUGate32(dst, x, dy []float32) {
	checkLen("ReLUGate32", len(x), len(dy))
	checkLen("ReLUGate32", len(dst), len(x))
	n := len(dst)
	i := 0
	if useAVX && n >= fusedLanes32 {
		head := n &^ (fusedLanes32 - 1)
		reluGate32Kernel(&x[0], &dy[0], &dst[0], head)
		i = head
	}
	for ; i < n; i++ {
		dst[i] = math.Float32frombits(math.Float32bits(dy[i]) & uint32(posMask(float64(x[i]))))
	}
}

// posMask is all ones when v > 0 and zero otherwise (NaN included); the
// single integer select compiles to a compare plus CMOV. Widening a
// float32 to v is exact, so the float32 tails share it.
func posMask(v float64) uint64 {
	m := uint64(0)
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}
