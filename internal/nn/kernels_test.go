package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// The branchy scalar references below are the definitions the branch-free
// layer kernels must reproduce bit for bit, in both precisions.

func reluForwardRef[F Float](x []F) []F {
	y := make([]F, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return y
}

func reluBackwardRef[F Float](x, dy []F) []F {
	dx := make([]F, len(x))
	for i, v := range x {
		if v > 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// maxPoolRef pools one c×h×w volume with non-overlapping k×k windows: the
// first tap seeds the window and a later tap wins only when strictly
// greater (first-wins ties; a NaN wins only as the first tap).
func maxPoolRef[F Float](x []F, c, h, w, k int) ([]F, []int) {
	oh, ow := h/k, w/k
	y := make([]F, c*oh*ow)
	arg := make([]int, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bi := (ch*h+oy*k)*w + ox*k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						i := (ch*h+oy*k+ky)*w + ox*k + kx
						if x[i] > x[bi] {
							bi = i
						}
					}
				}
				o := (ch*oh+oy)*ow + ox
				y[o], arg[o] = x[bi], bi
			}
		}
	}
	return y, arg
}

// col2imRef scatter-adds dcol by the definition: every (row, position)
// pair whose input coordinate lands inside the volume adds into it, in
// row-major (row, oy, ox) order — the order col2im accumulates in.
func col2imRef[F Float](dcol []F, inC, inH, inW, k, stride, pad, outH, outW int) []F {
	dx := make([]F, inC*inH*inW)
	n := outH * outW
	for ic := 0; ic < inC; ic++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				r := (ic*k+ky)*k + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride - pad + ky
						ix := ox*stride - pad + kx
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							dx[(ic*inH+iy)*inW+ix] += dcol[r*n+oy*outW+ox]
						}
					}
				}
			}
		}
	}
	return dx
}

func bitsOf[F Float](v F) uint64 {
	switch f := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(f))
	default:
		return math.Float64bits(any(v).(float64))
	}
}

// sameBits reports bit equality; with nanOK, any two NaNs also match (an
// add of two NaNs may keep either payload, which no kernel contract pins).
func sameBits[F Float](a, b []F, nanOK bool) int {
	for i := range a {
		if bitsOf(a[i]) == bitsOf(b[i]) {
			continue
		}
		if nanOK && a[i] != a[i] && b[i] != b[i] {
			continue
		}
		return i
	}
	return -1
}

// cycle returns n values taken from vals round-robin, starting at off.
func cycle[F Float](vals []F, n, off int) []F {
	out := make([]F, n)
	for i := range out {
		out[i] = vals[(i+off)%len(vals)]
	}
	return out
}

// checkLayerKernels runs the ReLU forward/backward, 2×2 (and generic 3×3)
// max-pool forward/backward and stride-1 col2im kernels over vals and
// compares each against its scalar reference.
func checkLayerKernels[F Float](t *testing.T, vals []F) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	n := len(vals)
	dy := cycle(vals, n, n/2+1)
	y := make([]F, n)
	reluForward(vals, y, n)
	if i := sameBits(y, reluForwardRef(vals), false); i >= 0 {
		t.Fatalf("reluForward(%v) = %v, want %v", vals[i], y[i], reluForwardRef(vals)[i])
	}
	dx := make([]F, n)
	reluBackward(vals, dy, dx, n)
	if i := sameBits(dx, reluBackwardRef(vals, dy), false); i >= 0 {
		t.Fatalf("reluBackward(x=%v, dy=%v) = %v, want %v", vals[i], dy[i], dx[i], reluBackwardRef(vals, dy)[i])
	}

	for _, p := range []struct{ c, h, w, k int }{{2, 4, 6, 2}, {1, 2, 2, 2}, {2, 6, 3, 3}} {
		const batch = 2
		in := Shape{C: p.c, H: p.h, W: p.w}
		l := &maxPool2d{in: in, out: Shape{C: p.c, H: p.h / p.k, W: p.w / p.k}, k: p.k}
		x := cycle(vals, batch*in.Size(), 0)
		py := make([]F, batch*l.out.Size())
		sc := &scratchOf[F]{}
		maxPoolForward(l, x, py, batch, sc)
		pdy := cycle(vals, len(py), 3)
		pdx := make([]F, len(x))
		maxPoolBackward(l, pdy, pdx, batch, sc.ints)
		wantDx := make([]F, len(x))
		for s := 0; s < batch; s++ {
			xs := x[s*in.Size() : (s+1)*in.Size()]
			wy, warg := maxPoolRef(xs, p.c, p.h, p.w, p.k)
			ys := py[s*l.out.Size() : (s+1)*l.out.Size()]
			args := sc.ints[s*l.out.Size() : (s+1)*l.out.Size()]
			for o := range wy {
				if args[o] != warg[o] || bitsOf(ys[o]) != bitsOf(wy[o]) {
					t.Fatalf("maxpool k=%d sample %d cell %d: got (%v, arg %d), want (%v, arg %d)", p.k, s, o, ys[o], args[o], wy[o], warg[o])
				}
				wantDx[s*in.Size()+warg[o]] += pdy[s*l.out.Size()+o]
			}
		}
		if i := sameBits(pdx, wantDx, true); i >= 0 {
			t.Fatalf("maxpool k=%d backward dx[%d] = %v, want %v", p.k, i, pdx[i], wantDx[i])
		}
	}

	for _, c := range []struct{ inC, inH, inW, k, pad int }{{2, 4, 4, 3, 1}, {1, 5, 3, 3, 0}, {1, 3, 4, 2, 1}, {1, 2, 2, 3, 2}} {
		outH, outW := c.inH+2*c.pad-c.k+1, c.inW+2*c.pad-c.k+1
		dcol := cycle(vals, c.inC*c.k*c.k*outH*outW, 5)
		got := make([]F, c.inC*c.inH*c.inW)
		col2im(got, append([]F(nil), dcol...), 1, c.inC, c.inH, c.inW, c.k, 1, c.pad, outH, outW)
		want := col2imRef(dcol, c.inC, c.inH, c.inW, c.k, 1, c.pad, outH, outW)
		if i := sameBits(got, want, true); i >= 0 {
			t.Fatalf("col2im %+v: dx[%d] = %v, want %v", c, i, got[i], want[i])
		}
	}
}

// kernelInputs64 mixes every special class — ±0, ±Inf, quiet, negative
// and signalling NaNs, subnormals, ±Max — with frequent ties and random
// values.
func kernelInputs64(r *rng.RNG) []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1, 3e38, -3e38,
	}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			vals = append(vals, float64(r.IntN(5)-2)) // ties
		case 1:
			vals = append(vals, 2*r.Float64()-1)
		default:
			vals = append(vals, vals[r.IntN(18)]) // specials, scattered
		}
	}
	return vals
}

func kernelInputs32(r *rng.RNG) []float32 {
	vals := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 1, 3e38, -3e38,
	}
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			vals = append(vals, float32(r.IntN(5)-2))
		case 1:
			vals = append(vals, float32(2*r.Float64()-1))
		default:
			vals = append(vals, vals[r.IntN(18)])
		}
	}
	return vals
}

// TestLayerKernelsMatchReference holds the branch-free kernels to the
// scalar references on every special class, in both precisions.
func TestLayerKernelsMatchReference(t *testing.T) {
	r := rng.New(41)
	t.Run("f64", func(t *testing.T) { checkLayerKernels(t, kernelInputs64(r)) })
	t.Run("f32", func(t *testing.T) { checkLayerKernels(t, kernelInputs32(r)) })
}

// FuzzLayerKernels feeds raw bit patterns to the layer kernels: the bytes
// are read as little-endian float64s and, separately, float32s.
func FuzzLayerKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 0, 0, 0x80, 0x3f})
	f.Add([]byte("ties ties ties ties ties ties ties ties"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v64 := make([]float64, len(data)/8)
		for i := range v64 {
			v64[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		v32 := make([]float32, len(data)/4)
		for i := range v32 {
			v32[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkLayerKernels(t, v64)
		checkLayerKernels(t, v32)
	})
}

// gradWithInputGrad is Engine.Gradient with a real buffer for layer 0's
// input gradient: the full backward pass the nil-dx first layer must
// match bit for bit.
func gradWithInputGrad(e *Engine, params, x []float64, labels []int, grad, dx0 []float64) float64 {
	batch := len(labels)
	logits := e.forwardPass(params, x, batch)
	nl := len(e.net.layers)
	loss := SoftmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, e.dacts[nl])
	vecmath.Zero(grad)
	for i := nl - 1; i >= 0; i-- {
		l := e.net.layers[i]
		off := e.net.offsets[i]
		dx := e.dacts[i]
		if i == 0 {
			dx = dx0
		}
		l.backward(params[off:off+l.paramCount()], e.acts[i], e.acts[i+1], e.dacts[i+1], dx, grad[off:off+l.paramCount()], batch, &e.scratch[i])
	}
	return loss
}

func gradWithInputGrad32(e *Engine32, params, x []float32, labels []int, grad, dx0 []float32) float64 {
	batch := len(labels)
	logits := e.forwardPass(params, x, batch)
	nl := len(e.net.layers)
	loss := softmaxCrossEntropy(logits[:batch*e.net.classes], labels, e.net.classes, e.dacts[nl])
	zeroF(grad)
	for i := nl - 1; i >= 0; i-- {
		l := e.net.layers[i]
		off := e.net.offsets[i]
		dx := e.dacts[i]
		if i == 0 {
			dx = dx0
		}
		l.backward32(params[off:off+l.paramCount()], e.acts[i], e.acts[i+1], e.dacts[i+1], dx, grad[off:off+l.paramCount()], batch, &e.scratch[i])
	}
	return loss
}

// TestGradientSkipsInputGradient checks that dropping layer 0's input
// gradient changes no parameter gradient bit: for the model zoo and for a
// network starting with each remaining layer kind, on both engines.
func TestGradientSkipsInputGradient(t *testing.T) {
	nets := map[string]*Network{
		"mlp":        MLP(12, 3),
		"cnn":        CNN(Shape{C: 1, H: 8, W: 8}, 5),
		"resnetlite": ResNetLite(Shape{C: 3, H: 8, W: 8}, 5, 1),
		"charlstm":   CharLSTM(4, 6, 8),
		"relu-first": NewBuilder(Vec(10)).ReLU().Dense(4).MustBuild(),
		"tanh-first": NewBuilder(Vec(10)).Tanh().Dense(4).MustBuild(),
		"pool-first": NewBuilder(Shape{C: 2, H: 4, W: 4}).MaxPool2D(2).Dense(4).MustBuild(),
		"gavg-first": NewBuilder(Shape{C: 3, H: 4, W: 4}).GlobalAvgPool().Dense(4).MustBuild(),
		"res-first":  NewBuilder(Shape{C: 2, H: 4, W: 4}).Residual().Dense(4).MustBuild(),
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			const batch = 5
			r := rng.New(17)
			params := net.InitParams(r)
			x := randInput(r, batch*net.InShape().Size())
			labels := randLabels(r, batch, net.OutSize())

			e := NewEngine(net, batch)
			got := make([]float64, net.NumParams())
			lossGot := e.Gradient(params, x, labels, got)
			if e.dacts[0] != nil {
				t.Fatal("Engine.Gradient allocated the unread input-gradient buffer")
			}
			want := make([]float64, net.NumParams())
			lossWant := gradWithInputGrad(e, params, x, labels, want, make([]float64, len(x)))
			if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
				t.Fatalf("loss %v, want %v", lossGot, lossWant)
			}
			if i := sameBits(got, want, false); i >= 0 {
				t.Fatalf("f64 grad[%d] = %v, want %v", i, got[i], want[i])
			}

			params32 := make([]float32, len(params))
			x32 := make([]float32, len(x))
			vecmath.Narrow(params32, params)
			vecmath.Narrow(x32, x)
			e32 := NewEngine32(net, batch)
			got32 := make([]float32, net.NumParams())
			lossGot = e32.Gradient(params32, x32, labels, got32)
			if e32.dacts[0] != nil {
				t.Fatal("Engine32.Gradient allocated the unread input-gradient buffer")
			}
			want32 := make([]float32, net.NumParams())
			lossWant = gradWithInputGrad32(e32, params32, x32, labels, want32, make([]float32, len(x32)))
			if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
				t.Fatalf("f32 loss %v, want %v", lossGot, lossWant)
			}
			if i := sameBits(got32, want32, false); i >= 0 {
				t.Fatalf("f32 grad[%d] = %v, want %v", i, got32[i], want32[i])
			}
		})
	}
}

// TestMaxPoolDegenerateWindows is the regression test for windows with no
// tap above −Inf (all −Inf, or NaN): a −Inf-seeded max loop recorded
// argmax −1 there and the backward pass indexed dx[−1]. A 1×1 conv copies
// the input into the pool, so the pool is not layer 0 and its backward
// routes into a real buffer.
func TestMaxPoolDegenerateWindows(t *testing.T) {
	for _, k := range []int{2, 3} {
		for _, fill := range []float64{math.Inf(-1), math.NaN()} {
			net := NewBuilder(Shape{C: 1, H: 6, W: 6}).Conv2D(1, 1, 1, 0).MaxPool2D(k).Dense(2).MustBuild()
			params := net.InitParams(rng.New(3))
			params[0], params[1] = 1, 0 // conv: y = x
			x := make([]float64, 36)
			for i := range x {
				x[i] = fill
			}
			labels := []int{1}
			wantArgs := func(args []int) {
				t.Helper()
				for o, a := range args {
					oy, ox := o/(6/k), o%(6/k)
					if first := oy*k*6 + ox*k; a != first {
						t.Fatalf("k=%d fill=%v: cell %d argmax %d, want first tap %d", k, fill, o, a, first)
					}
				}
			}

			e := NewEngine(net, 1)
			e.Gradient(params, x, labels, make([]float64, net.NumParams()))
			wantArgs(e.scratch[1].ints)

			params32 := make([]float32, len(params))
			x32 := make([]float32, len(x))
			vecmath.Narrow(params32, params)
			vecmath.Narrow(x32, x)
			e32 := NewEngine32(net, 1)
			e32.Gradient(params32, x32, labels, make([]float32, net.NumParams()))
			wantArgs(e32.scratch[1].ints)
		}
	}
}
