package nn

import (
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// relu applies y = max(0, x) elementwise; shape-preserving.
type relu struct {
	in Shape
}

// ReLU appends a rectified-linear activation.
func (b *Builder) ReLU() *Builder {
	return b.add(&relu{in: b.cur()}, nil)
}

func (l *relu) name() string                   { return "relu" }
func (l *relu) inShape() Shape                 { return l.in }
func (l *relu) outShape() Shape                { return l.in }
func (l *relu) paramCount() int                { return 0 }
func (l *relu) initParams([]float64, *rng.RNG) {}

func (l *relu) forward(_, x, y []float64, batch int, _ *scratch) {
	reluForward(x, y, batch*l.in.Size())
}

func (l *relu) forward32(_, x, y []float32, batch int, _ *scratch32) {
	reluForward(x, y, batch*l.in.Size())
}

func (l *relu) backward(_, x, _, dy, dx, _ []float64, batch int, _ *scratch) {
	reluBackward(x, dy, dx, batch*l.in.Size())
}

func (l *relu) backward32(_, x, _, dy, dx, _ []float32, batch int, _ *scratch32) {
	reluBackward(x, dy, dx, batch*l.in.Size())
}

// reluForward computes y = x > 0 ? x : +0 elementwise in either precision
// (NaN and −0 give +0) through the vecmath compare-to-mask kernels: a
// branch on the sign of fresh activations would mispredict on about half
// of them.
func reluForward[F Float](x, y []F, n int) {
	switch xs := any(x).(type) {
	case []float64:
		vecmath.ReLU(any(y).([]float64)[:n], xs[:n])
	case []float32:
		vecmath.ReLU32(any(y).([]float32)[:n], xs[:n])
	}
}

// reluBackward computes dx = x > 0 ? dy : +0; dx may alias dy.
func reluBackward[F Float](x, dy, dx []F, n int) {
	if dx == nil {
		return // first layer: no input gradient wanted
	}
	switch xs := any(x).(type) {
	case []float64:
		vecmath.ReLUGate(any(dx).([]float64)[:n], xs[:n], any(dy).([]float64)[:n])
	case []float32:
		vecmath.ReLUGate32(any(dx).([]float32)[:n], xs[:n], any(dy).([]float32)[:n])
	}
}

// tanhLayer applies y = tanh(x) elementwise; shape-preserving. Used by the
// MLP head variants and available for recurrent models.
type tanhLayer struct {
	in Shape
}

// Tanh appends a hyperbolic-tangent activation.
func (b *Builder) Tanh() *Builder {
	return b.add(&tanhLayer{in: b.cur()}, nil)
}

func (l *tanhLayer) name() string                   { return "tanh" }
func (l *tanhLayer) inShape() Shape                 { return l.in }
func (l *tanhLayer) outShape() Shape                { return l.in }
func (l *tanhLayer) paramCount() int                { return 0 }
func (l *tanhLayer) initParams([]float64, *rng.RNG) {}

func (l *tanhLayer) forward(_, x, y []float64, batch int, _ *scratch) {
	tanhForward(x, y, batch*l.in.Size())
}

func (l *tanhLayer) forward32(_, x, y []float32, batch int, _ *scratch32) {
	tanhForward(x, y, batch*l.in.Size())
}

func (l *tanhLayer) backward(_, _, y, dy, dx, _ []float64, batch int, _ *scratch) {
	tanhBackward(y, dy, dx, batch*l.in.Size())
}

func (l *tanhLayer) backward32(_, _, y, dy, dx, _ []float32, batch int, _ *scratch32) {
	tanhBackward(y, dy, dx, batch*l.in.Size())
}

func tanhForward[F Float](x, y []F, n int) {
	switch xs := any(x).(type) {
	case []float32:
		vecmath.Tanh32(any(y).([]float32)[:n], xs[:n])
	default:
		for i := 0; i < n; i++ {
			y[i] = tanhF(x[i])
		}
	}
}

func tanhBackward[F Float](y, dy, dx []F, n int) {
	if dx == nil {
		return // first layer: no input gradient wanted
	}
	for i := 0; i < n; i++ {
		dx[i] = dy[i] * (1 - y[i]*y[i])
	}
}
