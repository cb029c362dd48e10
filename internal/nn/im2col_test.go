package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// im2colNaive is the reference packing: walk every (row, position) pair
// and apply the definition directly, with explicit bounds checks.
func im2colNaive[F Float](dst, x []F, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride - pad + ky
						ix := ox*stride - pad + kx
						var v F
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							v = x[(ic*inH+iy)*inW+ix]
						}
						dst[r*n+oy*outW+ox] = v
					}
				}
			}
		}
	}
}

type convGeom struct{ inC, inH, inW, k, stride, pad int }

func (c convGeom) out() (outH, outW int) {
	return (c.inH+2*c.pad-c.k)/c.stride + 1, (c.inW+2*c.pad-c.k)/c.stride + 1
}

// packingCases lists the geometries of the packing tests. The first group
// takes im2col's shifted path (stride 1, 2·pad = k-1): the paper CNN's
// two fmnist convolutions, ResNetLite's residual convolutions, 1×1 and
// 5×5 kernels, a rectangular input and inputs narrower or shorter than
// the kernel. The second group sits just outside it and takes the
// per-row segment path.
var packingCases = []convGeom{
	{1, 8, 8, 3, 1, 1}, // fmnist conv1
	{6, 4, 4, 3, 1, 1}, // fmnist conv2
	{8, 8, 8, 3, 1, 1}, // cifar100 residual
	{3, 5, 5, 1, 1, 0}, // 1×1 kernel
	{2, 6, 6, 5, 1, 2}, // 5×5 kernel
	{3, 5, 7, 3, 1, 1}, // rectangular
	{2, 7, 3, 5, 1, 2}, // rectangular, kernel wider than the input
	{2, 5, 5, 3, 1, 1}, // inC > 1
	{1, 1, 1, 3, 1, 1}, // single pixel
	{2, 2, 1, 3, 1, 1}, // one column
	{1, 1, 5, 3, 1, 1}, // one row: the top and bottom taps read only padding
	{1, 2, 5, 5, 1, 2}, // two rows, 5×5 kernel: the outer row taps read only padding
	{1, 5, 5, 3, 1, 0}, // valid conv (p0): outW != inW
	{2, 6, 6, 3, 2, 1}, // stride 2
	{8, 8, 8, 3, 2, 1}, // cifar100 stride-2 transition
	{2, 8, 5, 3, 2, 2},
	{1, 6, 6, 5, 2, 2}, // kernel wider than stride, heavy clipping
	{2, 4, 4, 4, 4, 0}, // stride == kernel, no overlap
	{1, 3, 3, 3, 1, 2}, // padding larger than a same conv's
}

func TestIm2colAgainstNaive(t *testing.T) {
	r := rng.New(31)
	checkIm2col[float64](t, r)
	checkIm2col[float32](t, r)
}

// checkIm2col packs a batch of three samples into a destination
// pre-filled with NaN, so a cell the packing forgets to write fails too,
// and compares every sample's matrix with the naive packing.
func checkIm2col[F Float](t *testing.T, r *rng.RNG) {
	t.Helper()
	const batch = 3
	for _, c := range packingCases {
		outH, outW := c.out()
		if outH <= 0 || outW <= 0 {
			t.Fatalf("bad case %+v", c)
		}
		inSize, colSize := c.inC*c.inH*c.inW, c.inC*c.k*c.k*outH*outW
		x := make([]F, batch*inSize)
		for i := range x {
			x[i] = F(r.Normal(0, 1))
		}
		got := make([]F, batch*colSize)
		for i := range got {
			got[i] = F(math.NaN())
		}
		im2col(got, x, batch, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
		want := make([]F, colSize)
		for s := 0; s < batch; s++ {
			im2colNaive(want, x[s*inSize:(s+1)*inSize], c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
			if i := sameBits(got[s*colSize:(s+1)*colSize], want, false); i >= 0 {
				t.Fatalf("%T case %+v sample %d: element %d: got %v, want %v", F(0), c, s, i, got[s*colSize+i], want[i])
			}
		}
	}
}

// TestCol2imAgainstNaive holds col2im to the naive per-element scatter on
// every packing geometry and both dtypes. dcol mixes ±0, NaNs, ±Inf,
// subnormals and random values, so a padding-tap cell the shifted path
// failed to neutralise, an add of +0 onto a -0 cell, or a change in the
// order of the adds shows as a bit difference. NaN cells only have to
// stay NaN: an add of two NaNs may keep either payload.
func TestCol2imAgainstNaive(t *testing.T) {
	r := rng.New(43)
	checkCol2im(t, kernelInputs64(r))
	checkCol2im(t, kernelInputs32(r))
}

// checkCol2im takes vals from kernelInputs64/32, whose first 11 entries
// are the zeros, infinities, NaNs and subnormals. Cycling vals through
// dcol puts them on interior cells; every padding-tap cell (one whose
// input pixel falls in the zero padding) is then overwritten with one of
// them too.
func checkCol2im[F Float](t *testing.T, vals []F) {
	t.Helper()
	const batch = 2
	specials := vals[:11]
	for i, c := range packingCases {
		outH, outW := c.out()
		inSize, colSize := c.inC*c.inH*c.inW, c.inC*c.k*c.k*outH*outW
		dcol := cycle(vals, batch*colSize, 7*i)
		cell := 0
		for s := 0; s < batch; s++ {
			for r := 0; r < c.inC*c.k*c.k; r++ {
				ky, kx := r/c.k%c.k, r%c.k
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*c.stride-c.pad+ky, ox*c.stride-c.pad+kx
						if iy < 0 || iy >= c.inH || ix < 0 || ix >= c.inW {
							dcol[s*colSize+(r*outH+oy)*outW+ox] = specials[cell%len(specials)]
							cell++
						}
					}
				}
			}
		}
		got := make([]F, batch*inSize)
		col2im(got, append([]F(nil), dcol...), batch, c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
		for s := 0; s < batch; s++ {
			want := col2imRef(dcol[s*colSize:(s+1)*colSize], c.inC, c.inH, c.inW, c.k, c.stride, c.pad, outH, outW)
			if j := sameBits(got[s*inSize:(s+1)*inSize], want, true); j >= 0 {
				t.Fatalf("%T case %+v sample %d: dx[%d] = %v, want %v", F(0), c, s, j, got[s*inSize+j], want[j])
			}
		}
	}
}

// TestCol2imAdjoint verifies <Im2col(x), u> == <x, col2im(u)> for random
// x and u, which characterizes col2im as the exact adjoint of Im2col — the
// property the conv backward pass relies on.
func TestCol2imAdjoint(t *testing.T) {
	r := rng.New(37)
	const (
		inC, inH, inW  = 2, 6, 5
		k, stride, pad = 3, 2, 1
	)
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	kp := inC * k * k
	n := outH * outW

	x := randInput(r, inC*inH*inW)
	u := randInput(r, kp*n)
	col := make([]float64, kp*n)
	Im2col(col, x, inC, inH, inW, k, stride, pad, outH, outW)
	back := make([]float64, inC*inH*inW)
	col2im(back, u, 1, inC, inH, inW, k, stride, pad, outH, outW)

	var lhs, rhs float64
	for i := range col {
		lhs += col[i] * u[i]
	}
	for i := range x {
		rhs += x[i] * back[i]
	}
	if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("adjoint mismatch: <im2col(x),u>=%v, <x,col2im(u)>=%v", lhs, rhs)
	}
}

// TestAccuracyParallelMatchesSequential pins the worker-pool evaluation to
// the sequential result: the shards partition the batches and counting is
// integer, so any worker count must produce the identical accuracy.
func TestAccuracyParallelMatchesSequential(t *testing.T) {
	net := MLP(6, 3)
	r := rng.New(41)
	params := net.InitParams(r)
	const total, maxBatch = 103, 8 // 13 batches, last one ragged
	xs := randInput(r, total*6)
	labels := randLabels(r, total, 3)

	eng := NewEngine(net, maxBatch)
	want := eng.accuracyWorkers(params, xs, labels, 1)
	for _, workers := range []int{2, 3, 7, 16, 64} {
		if got := eng.accuracyWorkers(params, xs, labels, workers); got != want {
			t.Fatalf("accuracy with %d workers = %v, sequential = %v", workers, got, want)
		}
	}
	if got := eng.Accuracy(params, xs, labels); got != want {
		t.Fatalf("Accuracy = %v, sequential = %v", got, want)
	}
}
