package nn

import "fmt"

// Engine32 is the float32 twin of Engine: it executes forward and backward
// passes over float32 parameters and activations, calling each layer's
// forward32/backward32 methods. The loss scalar it returns is float64 —
// training-curve metrics stay full precision even when the compute path is
// fp32. Like Engine, it owns all activation and scratch buffers and is not
// safe for concurrent use; server-side evaluation stays on the float64
// Engine, so Engine32 carries only the training entry points.
type Engine32 struct {
	net      *Network
	maxBatch int
	acts     [][]float32
	dacts    [][]float32
	scratch  []scratch32
}

// NewEngine32 creates a float32 execution engine supporting batches up to
// maxBatch.
func NewEngine32(net *Network, maxBatch int) *Engine32 {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewEngine32 maxBatch %d must be positive", maxBatch))
	}
	e := &Engine32{
		net:      net,
		maxBatch: maxBatch,
		acts:     make([][]float32, len(net.layers)+1),
		dacts:    make([][]float32, len(net.layers)+1),
		scratch:  make([]scratch32, len(net.layers)),
	}
	for i, l := range net.layers {
		e.acts[i+1] = make([]float32, maxBatch*l.outShape().Size())
	}
	return e
}

// ensureGradBuffers mirrors Engine.ensureGradBuffers: backward-pass
// buffers are allocated on first Gradient call.
func (e *Engine32) ensureGradBuffers() {
	if e.dacts[len(e.net.layers)] != nil {
		return
	}
	for i, l := range e.net.layers {
		e.dacts[i+1] = make([]float32, e.maxBatch*l.outShape().Size())
	}
}

// Net returns the architecture this engine executes.
func (e *Engine32) Net() *Network { return e.net }

func (e *Engine32) checkBatch(x []float32, batch int) {
	if batch <= 0 || batch > e.maxBatch {
		panic(fmt.Sprintf("nn: batch %d out of range (1..%d)", batch, e.maxBatch))
	}
	if len(x) < batch*e.net.in.Size() {
		panic(fmt.Sprintf("nn: input has %d floats, need %d", len(x), batch*e.net.in.Size()))
	}
}

func (e *Engine32) forwardPass(params, x []float32, batch int) []float32 {
	e.acts[0] = x
	for i, l := range e.net.layers {
		off := e.net.offsets[i]
		p := params[off : off+l.paramCount()]
		l.forward32(p, e.acts[i], e.acts[i+1], batch, &e.scratch[i])
	}
	return e.acts[len(e.net.layers)]
}

// Gradient runs a full forward/backward pass over the mini-batch x (row-
// major batch×inputSize) with integer labels, writes the gradient of the
// mean loss into grad (zeroed first), and returns the mean loss. Like
// Engine.Gradient, it skips the input gradient (dx == nil for layer 0).
func (e *Engine32) Gradient(params, x []float32, labels []int, grad []float32) float64 {
	batch := len(labels)
	e.checkBatch(x, batch)
	if len(grad) != e.net.total {
		panic(fmt.Sprintf("nn: grad has %d elements, want %d", len(grad), e.net.total))
	}
	e.ensureGradBuffers()
	logits := e.forwardPass(params, x, batch)
	nl := len(e.net.layers)
	loss := softmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, e.dacts[nl])
	zeroF(grad)
	for i := nl - 1; i >= 0; i-- {
		l := e.net.layers[i]
		off := e.net.offsets[i]
		p := params[off : off+l.paramCount()]
		dp := grad[off : off+l.paramCount()]
		l.backward32(p, e.acts[i], e.acts[i+1], e.dacts[i+1], e.dacts[i], dp, batch, &e.scratch[i])
	}
	return loss
}

// Loss runs a forward pass only and returns the mean cross-entropy loss.
func (e *Engine32) Loss(params, x []float32, labels []int) float64 {
	batch := len(labels)
	e.checkBatch(x, batch)
	logits := e.forwardPass(params, x, batch)
	return softmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, nil)
}
