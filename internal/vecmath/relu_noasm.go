//go:build !amd64 || noasm

package vecmath

func reluKernel(x, dst *float64, n int) {
	panic("vecmath: assembly kernel without asm support")
}

func reluGateKernel(x, dy, dst *float64, n int) {
	panic("vecmath: assembly kernel without asm support")
}

func relu32Kernel(x, dst *float32, n int) {
	panic("vecmath: assembly kernel without asm support")
}

func reluGate32Kernel(x, dy, dst *float32, n int) {
	panic("vecmath: assembly kernel without asm support")
}
