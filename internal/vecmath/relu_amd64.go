//go:build amd64 && !noasm

package vecmath

// reluKernel writes dst[i] = x[i] > 0 ? x[i] : +0 over the first n
// elements with AVX2; n must be a positive multiple of fusedLanes. dst may
// exactly alias x.
//
//go:noescape
func reluKernel(x, dst *float64, n int)

// reluGateKernel writes dst[i] = x[i] > 0 ? dy[i] : +0 over the first n
// elements with AVX2; n must be a positive multiple of fusedLanes. dst may
// exactly alias x or dy.
//
//go:noescape
func reluGateKernel(x, dy, dst *float64, n int)

// relu32Kernel is reluKernel for float32; n must be a positive multiple
// of fusedLanes32.
//
//go:noescape
func relu32Kernel(x, dst *float32, n int)

// reluGate32Kernel is reluGateKernel for float32; n must be a positive
// multiple of fusedLanes32.
//
//go:noescape
func reluGate32Kernel(x, dy, dst *float32, n int)
