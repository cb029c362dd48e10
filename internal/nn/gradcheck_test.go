package nn

import (
	"testing"

	"repro/internal/rng"
)

// Every layer type gets a finite-difference gradient check on a small
// network containing it. A worst relative error below 1e-4 with h=1e-5
// means the analytic backward pass is correct (float64 arithmetic).
const (
	gcStep = 1e-5
	gcTol  = 1e-4
)

func randInput(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
	}
	return x
}

func randLabels(r *rng.RNG, batch, classes int) []int {
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.IntN(classes)
	}
	return labels
}

func checkNet(t *testing.T, net *Network, batch int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	params := net.InitParams(r)
	x := randInput(r, batch*net.InShape().Size())
	labels := randLabels(r, batch, net.OutSize())
	if got := GradCheck(net, params, x, labels, gcStep); got > gcTol {
		t.Fatalf("gradient check failed: max relative error %.3g > %.3g\nnet:\n%s", got, gcTol, net)
	}
}

func TestGradDense(t *testing.T) {
	net := NewBuilder(Vec(7)).Dense(5).Dense(3).MustBuild()
	checkNet(t, net, 4, 1)
}

func TestGradReLU(t *testing.T) {
	net := NewBuilder(Vec(6)).Dense(8).ReLU().Dense(4).MustBuild()
	checkNet(t, net, 3, 2)
}

func TestGradTanh(t *testing.T) {
	net := NewBuilder(Vec(6)).Dense(8).Tanh().Dense(4).MustBuild()
	checkNet(t, net, 3, 3)
}

func TestGradConv2D(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 5, W: 5}).
		Conv2D(3, 3, 1, 1).ReLU().
		Dense(4).
		MustBuild()
	checkNet(t, net, 3, 4)
}

func TestGradConv2DStride(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 6, W: 6}).
		Conv2D(3, 3, 2, 1).ReLU().
		Dense(4).
		MustBuild()
	checkNet(t, net, 2, 5)
}

func TestGradConv2DNoPad(t *testing.T) {
	net := NewBuilder(Shape{C: 1, H: 5, W: 5}).
		Conv2D(2, 3, 1, 0).
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 6)
}

func TestGradConv2DStridePad(t *testing.T) {
	// Stride > 1 combined with pad > 0 exercises every valid-range edge of
	// the im2col packing at once.
	net := NewBuilder(Shape{C: 2, H: 7, W: 7}).
		Conv2D(3, 3, 2, 2).ReLU().
		Dense(4).
		MustBuild()
	checkNet(t, net, 2, 21)
}

func TestGradConv2DRect(t *testing.T) {
	// Rectangular (H≠W) input: catches any H/W transposition in the
	// im2col/col2im index arithmetic.
	net := NewBuilder(Shape{C: 2, H: 5, W: 7}).
		Conv2D(3, 3, 1, 1).ReLU().
		Dense(4).
		MustBuild()
	checkNet(t, net, 2, 22)
}

func TestGradConv2DRectStridePad(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 8, W: 5}).
		Conv2D(3, 3, 2, 1).ReLU().
		Dense(4).
		MustBuild()
	checkNet(t, net, 2, 23)
}

func TestGradConv2DWideKernelPad(t *testing.T) {
	// Kernel wider than stride with asymmetrically clipped valid ranges
	// (k=5 on a 6×6 input with pad 2).
	net := NewBuilder(Shape{C: 1, H: 6, W: 6}).
		Conv2D(2, 5, 2, 2).
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 24)
}

func TestGradConv2DOneRow(t *testing.T) {
	// A one-row input: the top and bottom kernel rows of a same conv read
	// only padding, while their columns still overlap the input.
	net := NewBuilder(Shape{C: 2, H: 1, W: 5}).
		Conv2D(3, 3, 1, 1).ReLU().
		Conv2D(2, 3, 1, 1).
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 25)
}

func TestGradMaxPool(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 4, W: 4}).
		Conv2D(2, 3, 1, 1).
		MaxPool2D(2).
		Dense(3).
		MustBuild()
	checkNet(t, net, 3, 7)
}

func TestGradGlobalAvgPool(t *testing.T) {
	net := NewBuilder(Shape{C: 3, H: 4, W: 4}).
		Conv2D(4, 3, 1, 1).ReLU().
		GlobalAvgPool().
		Dense(3).
		MustBuild()
	checkNet(t, net, 3, 8)
}

func TestGradResidual(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 4, W: 4}).
		Residual().
		GlobalAvgPool().
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 9)
}

func TestGradResidualStack(t *testing.T) {
	net := NewBuilder(Shape{C: 2, H: 4, W: 4}).
		Residual().Residual().
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 10)
}

func TestGradLSTM(t *testing.T) {
	const (
		steps  = 4
		vocab  = 5
		hidden = 6
	)
	net := NewBuilder(Vec(steps*vocab)).
		LSTM(steps, vocab, hidden).
		Dense(vocab).
		MustBuild()
	checkNet(t, net, 3, 11)
}

func TestGradLSTMAfterDense(t *testing.T) {
	// Exercise the LSTM's dx path by placing a layer before it.
	const (
		steps  = 3
		inDim  = 4
		hidden = 5
	)
	net := NewBuilder(Vec(steps*inDim)).
		Dense(steps*inDim).
		LSTM(steps, inDim, hidden).
		Dense(3).
		MustBuild()
	checkNet(t, net, 2, 12)
}

func TestGradPaperCNN(t *testing.T) {
	net := CNN(Shape{C: 1, H: 8, W: 8}, 10)
	checkNet(t, net, 2, 13)
}

func TestGradPaperMLP(t *testing.T) {
	net := MLP(12, 2)
	checkNet(t, net, 4, 14)
}

func TestGradPaperResNetLite(t *testing.T) {
	net := ResNetLite(Shape{C: 3, H: 8, W: 8}, 4, 1)
	checkNet(t, net, 2, 15)
}
