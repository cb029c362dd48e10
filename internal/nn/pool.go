package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// maxPool2d is a non-overlapping k×k max pooling layer. The winning input
// index per output cell is recorded in scratch for the backward pass.
type maxPool2d struct {
	in  Shape
	out Shape
	k   int
}

// MaxPool2D appends k×k max pooling with stride k. The spatial extent must
// be divisible by k.
func (b *Builder) MaxPool2D(k int) *Builder {
	in := b.cur()
	if k <= 0 {
		return b.add(nil, fmt.Errorf("nn: MaxPool2D window %d must be positive", k))
	}
	if in.H%k != 0 || in.W%k != 0 {
		return b.add(nil, fmt.Errorf("nn: MaxPool2D window %d does not divide input %v", k, in))
	}
	return b.add(&maxPool2d{
		in:  in,
		out: Shape{C: in.C, H: in.H / k, W: in.W / k},
		k:   k,
	}, nil)
}

func (l *maxPool2d) name() string                   { return "maxpool2d" }
func (l *maxPool2d) inShape() Shape                 { return l.in }
func (l *maxPool2d) outShape() Shape                { return l.out }
func (l *maxPool2d) paramCount() int                { return 0 }
func (l *maxPool2d) initParams([]float64, *rng.RNG) {}

func (l *maxPool2d) forward(_, x, y []float64, batch int, sc *scratch) {
	maxPoolForward(l, x, y, batch, sc)
}

func (l *maxPool2d) forward32(_, x, y []float32, batch int, sc *scratch32) {
	maxPoolForward(l, x, y, batch, sc)
}

func (l *maxPool2d) backward(_, _, _, dy, dx, _ []float64, batch int, sc *scratch) {
	maxPoolBackward(l, dy, dx, batch, sc.ints)
}

func (l *maxPool2d) backward32(_, _, _, dy, dx, _ []float32, batch int, sc *scratch32) {
	maxPoolBackward(l, dy, dx, batch, sc.ints)
}

func maxPoolForward[F Float](l *maxPool2d, x, y []F, batch int, sc *scratchOf[F]) {
	inH, inW := l.in.H, l.in.W
	outH, outW := l.out.H, l.out.W
	inSize, outSize := l.in.Size(), l.out.Size()
	arg := sc.intBuf(batch * outSize)
	if l.k == 2 {
		maxPool2x2Forward(l, x, y, arg, batch)
		return
	}
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := y[s*outSize : (s+1)*outSize]
		args := arg[s*outSize : (s+1)*outSize]
		for c := 0; c < l.in.C; c++ {
			base := c * inH * inW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					// Seeded from the window's first tap, not a −Inf
					// sentinel, so an all −Inf or NaN window still records
					// a real argmax (first-wins, like the 2×2 path).
					bestIdx := base + oy*l.k*inW + ox*l.k
					best := xs[bestIdx]
					for ky := 0; ky < l.k; ky++ {
						row := base + (oy*l.k+ky)*inW + ox*l.k
						for kx := 0; kx < l.k; kx++ {
							if v := xs[row+kx]; v > best {
								best = v
								bestIdx = row + kx
							}
						}
					}
					o := (c*outH+oy)*outW + ox
					ys[o] = best
					args[o] = bestIdx
				}
			}
		}
	}
}

// maxPool2x2Forward is the fast path for the ubiquitous 2×2 window: the
// window loops unroll into three compares over two adjacent input rows,
// and none of them is a branch — the order of fresh activations would
// mispredict about half the time. The running maximum is carried as the
// bits of its (exact) float64 widening and each compare selects those
// bits and the index with integer CMOVs. The pooled values are gathered
// through the recorded indices in a second pass (the compiler turns a
// select that addresses a load back into a branch), which also keeps
// their exact bits in both precisions. Tie-breaking keeps the generic loop's first-wins order
// (row-major within the window, a NaN wins only as the first tap), so the
// recorded argmax — and therefore the backward routing — is identical.
func maxPool2x2Forward[F Float](l *maxPool2d, x, y []F, arg []int, batch int) {
	inH, inW := l.in.H, l.in.W
	outH, outW := l.out.H, l.out.W
	inSize, outSize := l.in.Size(), l.out.Size()
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		args := arg[s*outSize : (s+1)*outSize]
		for c := 0; c < l.in.C; c++ {
			base := c * inH * inW
			for oy := 0; oy < outH; oy++ {
				r0 := base + (2*oy)*inW
				r1 := r0 + inW
				o := (c*outH + oy) * outW
				for ox := 0; ox < outW; ox++ {
					i0 := r0 + 2*ox
					i1 := r1 + 2*ox
					bi, bb := i0, math.Float64bits(float64(xs[i0]))
					bi, bb = maxStep(bi, bb, i0+1, float64(xs[i0+1]))
					bi, bb = maxStep(bi, bb, i1, float64(xs[i1]))
					bi, _ = maxStep(bi, bb, i1+1, float64(xs[i1+1]))
					args[o+ox] = bi
				}
			}
		}
		ys := y[s*outSize : (s+1)*outSize]
		for o, i := range args {
			ys[o] = xs[i]
		}
	}
}

// maxStep folds tap j with value v into a window's running maximum (index
// bi, value bits bb): v replaces it only when v > max, so ties and NaN
// taps keep the earlier winner. Both selects are masks, not branches.
func maxStep(bi int, bb uint64, j int, v float64) (int, uint64) {
	m := gtMask(v, math.Float64frombits(bb))
	return bi ^ (bi^j)&int(m), bb ^ (bb^math.Float64bits(v))&m
}

// gtMask is all ones when a > b and zero otherwise (NaN compares false).
// The single integer select compiles to a compare plus CMOV, not a branch.
func gtMask(a, b float64) uint64 {
	m := uint64(0)
	if a > b {
		m = ^uint64(0)
	}
	return m
}

func maxPoolBackward[F Float](l *maxPool2d, dy, dx []F, batch int, ints []int) {
	if dx == nil {
		return // first layer: no input gradient wanted
	}
	inSize, outSize := l.in.Size(), l.out.Size()
	arg := ints[:batch*outSize] // recorded by forward
	zeroF(dx[:batch*inSize])
	for s := 0; s < batch; s++ {
		dys := dy[s*outSize : (s+1)*outSize]
		dxs := dx[s*inSize : (s+1)*inSize]
		args := arg[s*outSize : (s+1)*outSize]
		for o, g := range dys {
			dxs[args[o]] += g
		}
	}
}

// globalAvgPool reduces each channel's spatial map to its mean, producing a
// C-vector. Used by the ResNet-style model head.
type globalAvgPool struct {
	in Shape
}

// GlobalAvgPool appends a global average pooling layer.
func (b *Builder) GlobalAvgPool() *Builder {
	return b.add(&globalAvgPool{in: b.cur()}, nil)
}

func (l *globalAvgPool) name() string                   { return "gavgpool" }
func (l *globalAvgPool) inShape() Shape                 { return l.in }
func (l *globalAvgPool) outShape() Shape                { return Vec(l.in.C) }
func (l *globalAvgPool) paramCount() int                { return 0 }
func (l *globalAvgPool) initParams([]float64, *rng.RNG) {}

func (l *globalAvgPool) forward(_, x, y []float64, batch int, _ *scratch) {
	gavgForward(l, x, y, batch)
}

func (l *globalAvgPool) forward32(_, x, y []float32, batch int, _ *scratch32) {
	gavgForward(l, x, y, batch)
}

func (l *globalAvgPool) backward(_, _, _, dy, dx, _ []float64, batch int, _ *scratch) {
	gavgBackward(l, dy, dx, batch)
}

func (l *globalAvgPool) backward32(_, _, _, dy, dx, _ []float32, batch int, _ *scratch32) {
	gavgBackward(l, dy, dx, batch)
}

func gavgForward[F Float](l *globalAvgPool, x, y []F, batch int) {
	hw := l.in.H * l.in.W
	inSize := l.in.Size()
	inv := F(1.0 / float64(hw))
	for s := 0; s < batch; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := y[s*l.in.C : (s+1)*l.in.C]
		for c := 0; c < l.in.C; c++ {
			var sum F
			for i := c * hw; i < (c+1)*hw; i++ {
				sum += xs[i]
			}
			ys[c] = sum * inv
		}
	}
}

func gavgBackward[F Float](l *globalAvgPool, dy, dx []F, batch int) {
	if dx == nil {
		return // first layer: no input gradient wanted
	}
	hw := l.in.H * l.in.W
	inSize := l.in.Size()
	inv := F(1.0 / float64(hw))
	for s := 0; s < batch; s++ {
		dys := dy[s*l.in.C : (s+1)*l.in.C]
		dxs := dx[s*inSize : (s+1)*inSize]
		for c := 0; c < l.in.C; c++ {
			g := dys[c] * inv
			for i := c * hw; i < (c+1)*hw; i++ {
				dxs[i] = g
			}
		}
	}
}
