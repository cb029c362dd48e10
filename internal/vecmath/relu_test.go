package vecmath

import (
	"math"
	"testing"
)

// reluSpecials covers every class the mask must decide: ±0, ±Inf, quiet,
// negative and signalling NaNs, subnormals, ±Max and ordinary values.
var reluSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, 1.5, -2.5, 3e38, -1e-300,
}

var reluSpecials32 = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1.5, -2.5, 3e38, -1e-40,
}

// checkReLU holds relu and gate bit for bit to the branchy definition at
// every length across the AVX2 head and the scalar tail, with every
// special rotated through every lane, and with dst aliasing each input.
func checkReLU[F float32 | float64](t *testing.T, specials []F, relu func(dst, x []F), gate func(dst, x, dy []F), bits func(F) uint64) {
	t.Helper()
	for n := 0; n <= 41; n++ {
		for off := range specials {
			x, dy := make([]F, n), make([]F, n)
			for i := range x {
				x[i] = specials[(i+off)%len(specials)]
				dy[i] = specials[(3*i+off+5)%len(specials)]
			}
			wantY, wantDx := make([]F, n), make([]F, n)
			for i, v := range x {
				if v > 0 {
					wantY[i], wantDx[i] = v, dy[i]
				}
			}
			same := func(op string, got, want []F) {
				t.Helper()
				for i := range got {
					if bits(got[i]) != bits(want[i]) {
						t.Fatalf("n=%d off=%d %s[%d] (x=%v) = %v, want %v", n, off, op, i, x[i], got[i], want[i])
					}
				}
			}
			y := make([]F, n)
			relu(y, x)
			same("ReLU", y, wantY)
			copy(y, x)
			relu(y, y)
			same("ReLU in place", y, wantY)
			gate(y, x, dy)
			same("ReLUGate", y, wantDx)
			copy(y, dy)
			gate(y, x, y)
			same("ReLUGate dst=dy", y, wantDx)
			copy(y, x)
			gate(y, y, dy)
			same("ReLUGate dst=x", y, wantDx)
		}
	}
}

func TestReLUMatchesDefinition(t *testing.T) {
	checkReLU(t, reluSpecials, ReLU, ReLUGate, math.Float64bits)
	checkReLU(t, reluSpecials32, ReLU32, ReLUGate32, func(v float32) uint64 { return uint64(math.Float32bits(v)) })
}
