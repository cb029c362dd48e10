package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// conv2d is a 2-D convolution with square kernels, arbitrary stride, and
// symmetric zero padding. Weights are laid out [outC][inC][k][k] followed
// by one bias per output channel.
//
// Forward and backward are lowered onto the vecmath GEMM kernels a whole
// mini-batch at a time (see DESIGN.md §2). im2col packs every sample's
// input into a K×N patch matrix (K = inC·k·k patch rows, N = outH·outW
// output positions) in one pass, so the convolution is a dense outC×K×N
// product per sample. Stride and zero padding are resolved once per kernel tap, which keeps
// every inner loop branch-free. For stride-1 "same" convolutions — every
// conv in the model zoo but the stride-2 transition — a patch row is the
// input plane shifted by one constant offset, so packing is one
// contiguous copy per row and col2im one contiguous add per row. The
// weight gradient sums the samples' dY·colᵀ products in sample order
// through one batched kernel; every output is bit-identical to running
// the samples one at a time.
type conv2d struct {
	in          Shape
	out         Shape
	outC        int
	k           int
	stride, pad int
}

// Conv2D appends a convolution with outC output channels, k×k kernels, the
// given stride, and symmetric zero padding pad.
func (b *Builder) Conv2D(outC, k, stride, pad int) *Builder {
	in := b.cur()
	l, err := newConv2D(in, outC, k, stride, pad)
	return b.add(l, err)
}

func newConv2D(in Shape, outC, k, stride, pad int) (*conv2d, error) {
	if outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: Conv2D(outC=%d, k=%d, stride=%d, pad=%d) invalid", outC, k, stride, pad)
	}
	oh := (in.H+2*pad-k)/stride + 1
	ow := (in.W+2*pad-k)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D kernel %d does not fit input %v with stride %d pad %d", k, in, stride, pad)
	}
	return &conv2d{
		in:     in,
		out:    Shape{C: outC, H: oh, W: ow},
		outC:   outC,
		k:      k,
		stride: stride,
		pad:    pad,
	}, nil
}

func (l *conv2d) name() string    { return "conv2d" }
func (l *conv2d) inShape() Shape  { return l.in }
func (l *conv2d) outShape() Shape { return l.out }
func (l *conv2d) paramCount() int { return l.outC*l.in.C*l.k*l.k + l.outC }

// patchSize is K, the im2col row count: one row per (inC, ky, kx) tap.
func (l *conv2d) patchSize() int { return l.in.C * l.k * l.k }

func (l *conv2d) initParams(params []float64, r *rng.RNG) {
	fanIn := l.in.C * l.k * l.k
	limit := math.Sqrt(2.0 / float64(fanIn)) // Kaiming-normal-ish scale, uniform draw
	nw := l.outC * fanIn
	for i := 0; i < nw; i++ {
		params[i] = (2*r.Float64() - 1) * limit
	}
	vecmath.Zero(params[nw:])
}

// validRange returns the [lo, hi) interval of output coordinates whose
// input coordinate o*stride-pad+koff lands inside [0, extent). Outside the
// interval the tap reads implicit zero padding. Resolving the interval
// here is what removes the per-element bounds checks from the pack loops.
func validRange(outExtent, extent, stride, pad, koff int) (lo, hi int) {
	lo = 0
	if d := pad - koff; d > 0 {
		lo = (d + stride - 1) / stride
	}
	hi = outExtent
	top := extent - 1 + pad - koff
	if top < 0 {
		return 0, 0
	}
	if h := top/stride + 1; h < hi {
		hi = h
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2col packs one sample's activation volume (inC×inH×inW, row-major)
// into the K×N patch matrix dst, where K = inC·k·k and N = outH·outW.
// Row r = (ic·k+ky)·k+kx of dst holds, for every output position
// (oy, ox) in column oy·outW+ox, the input element
// x[ic][oy·stride-pad+ky][ox·stride-pad+kx], or 0 where that index falls
// in the zero padding. It is exported for the micro-benchmarks and for
// downstream code that wants the packed patch matrix directly.
func Im2col(dst, x []float64, inC, inH, inW, k, stride, pad, outH, outW int) {
	im2col(dst, x, 1, inC, inH, inW, k, stride, pad, outH, outW)
}

// im2col packs batch samples (x holds their volumes back to back) into
// batch consecutive K×N patch matrices. The loops run tap-major: a tap's
// valid ranges and shift are resolved once and serve every input plane
// of the batch. Plane q = s·inC+ic owns the patch rows q·k·k .. q·k·k+k·k-1
// (sample s's matrix starts at row s·K = s·inC·k·k), so one loop over q
// covers every sample and channel.
//
// When stride is 1 and outW == inW (a "same" convolution, 2·pad = k-1),
// output cell j of tap (ky, kx) reads input cell j+off of the plane with
// off = (ky-pad)·inW + kx-pad, so the rows [oyLo, oyHi) are one
// contiguous copy. That copy also fills the cells whose column lies in
// the horizontal padding with values wrapped in from the neighbouring
// image row; zeroWrapped clears them afterwards. Other geometries copy
// one valid segment per output row.
func im2col[F Float](dst, x []F, batch, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	hw := inH * inW
	planes := batch * inC
	shifted := stride == 1 && outW == inW
	for ky := 0; ky < k; ky++ {
		oyLo, oyHi := validRange(outH, inH, stride, pad, ky)
		for kx := 0; kx < k; kx++ {
			tap := ky*k + kx
			oxLo, oxHi := validRange(outW, inW, stride, pad, kx)
			off := (ky-pad)*inW + kx - pad
			lo, hi := shiftedRange(oyLo, oyHi, outW, off, hw)
			for q := 0; q < planes; q++ {
				row := dst[(q*k*k+tap)*n:][:n]
				if oyLo >= oyHi || oxLo >= oxHi {
					zeroF(row) // the tap reads only padding
					continue
				}
				plane := x[q*hw:][:hw]
				if shifted {
					// Zero the cells outside the copied range (the rows
					// above and below the valid oy range and any wrapped
					// cell the clamp dropped), copy, then zero the
					// wrapped cells inside it.
					for i := 0; i < lo; i++ {
						row[i] = 0
					}
					for i := hi; i < n; i++ {
						row[i] = 0
					}
					copy(row[lo:hi], plane[lo+off:hi+off])
					zeroWrapped(row, oyLo, oyHi, outW, oxLo, oxHi)
					continue
				}
				// Zero the rows above and below the valid oy range.
				zeroF(row[:oyLo*outW])
				zeroF(row[oyHi*outW:])
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride - pad + ky
					src := plane[iy*inW:]
					zeroF(row[oy*outW : oy*outW+oxLo])
					zeroF(row[oy*outW+oxHi : (oy+1)*outW])
					seg := row[oy*outW+oxLo : oy*outW+oxHi]
					ix := oxLo*stride - pad + kx
					if stride == 1 {
						copy(seg, src[ix:ix+len(seg)])
						continue
					}
					for i := range seg {
						seg[i] = src[ix]
						ix += stride
					}
				}
			}
		}
	}
}

// shiftedRange clamps the valid rows' cells [oyLo·outW, oyHi·outW) of a
// shifted patch row to those whose source cell j+off lies inside the
// plane. The cells it drops are all horizontal-padding cells: a valid
// (oy, ox) always reads inside the plane. The caller must have a valid
// cell (oyLo < oyHi and oxLo < oxHi); the range then holds it, so
// 0 ≤ lo < hi ≤ n and lo+off ≥ 0.
func shiftedRange(oyLo, oyHi, outW, off, hw int) (lo, hi int) {
	lo = max(oyLo*outW, -off)
	hi = max(min(oyHi*outW, hw-off), lo)
	return lo, hi
}

// zeroWrapped zeroes the cells of rows [oyLo, oyHi) of a patch row whose
// column lies outside the valid range [oxLo, oxHi): at most |kx-pad| per
// row, the cells a shifted copy or add would wrap into the neighbouring
// image row.
func zeroWrapped[F Float](row []F, oyLo, oyHi, outW, oxLo, oxHi int) {
	rows := row[:oyHi*outW]
	for ox := 0; ox < oxLo; ox++ {
		for i := oyLo*outW + ox; i < len(rows); i += outW {
			rows[i] = 0
		}
	}
	for ox := oxHi; ox < outW; ox++ {
		for i := oyLo*outW + ox; i < len(rows); i += outW {
			rows[i] = 0
		}
	}
}

// col2im is the adjoint of im2col: it scatter-adds the batch's K×N
// patch-gradient matrices dcol into the activation-gradient volumes dx
// (inC×inH×inW each), which the caller must have zeroed. Taps that read
// zero padding in the forward pass contribute nothing, and every dx
// element receives its rows' contributions in ascending row order, as a
// per-row scatter would add them.
//
// On the shifted path (see im2col) each row is one contiguous add over
// [lo, hi). Its wrapped cells are first set to +0 in dcol, which is
// therefore scratch. Adding +0 is the identity on every dx value except
// -0, and dx never holds -0: it starts at +0, and under round-to-nearest
// a sum is -0 only when both addends are. So the contiguous add is bit
// for bit the per-segment one, NaNs, infinities and subnormals included.
func col2im[F Float](dx, dcol []F, batch, inC, inH, inW, k, stride, pad, outH, outW int) {
	n := outH * outW
	hw := inH * inW
	planes := batch * inC
	shifted := stride == 1 && outW == inW
	for ky := 0; ky < k; ky++ {
		oyLo, oyHi := validRange(outH, inH, stride, pad, ky)
		for kx := 0; kx < k; kx++ {
			tap := ky*k + kx
			oxLo, oxHi := validRange(outW, inW, stride, pad, kx)
			if oyLo >= oyHi || oxLo >= oxHi {
				continue
			}
			off := (ky-pad)*inW + kx - pad
			lo, hi := shiftedRange(oyLo, oyHi, outW, off, hw)
			for q := 0; q < planes; q++ {
				row := dcol[(q*k*k+tap)*n:][:n]
				plane := dx[q*hw:][:hw]
				if shifted {
					zeroWrapped(row, oyLo, oyHi, outW, oxLo, oxHi)
					d := plane[lo+off : hi+off]
					for i, v := range row[lo:hi] {
						d[i] += v
					}
					continue
				}
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride - pad + ky
					ix := oxLo*stride - pad + kx
					seg := row[oy*outW+oxLo : oy*outW+oxHi]
					if stride == 1 {
						d := plane[iy*inW+ix:][:len(seg)]
						for i, v := range seg {
							d[i] += v
						}
						continue
					}
					dst := plane[iy*inW:]
					for i := range seg {
						dst[ix] += seg[i]
						ix += stride
					}
				}
			}
		}
	}
}

func (l *conv2d) forward(params, x, y []float64, batch int, sc *scratch) {
	convForward(l, params, x, y, batch, sc)
}

func (l *conv2d) forward32(params, x, y []float32, batch int, sc *scratch32) {
	convForward(l, params, x, y, batch, sc)
}

func (l *conv2d) backward(params, x, _, dy, dx, dparams []float64, batch int, sc *scratch) {
	convBackward(l, params, dy, dx, dparams, batch, sc)
}

func (l *conv2d) backward32(params, x, _, dy, dx, dparams []float32, batch int, sc *scratch32) {
	convBackward(l, params, dy, dx, dparams, batch, sc)
}

func convForward[F Float](l *conv2d, params, x, y []F, batch int, sc *scratchOf[F]) {
	kp := l.patchSize()
	n := l.out.H * l.out.W
	w := params[:l.outC*kp]
	bias := params[l.outC*kp:]
	// The batch's K×N patch matrices stay in sc.cols so backward can
	// reuse the packing for the dW product.
	cols := sc.colBuf(batch * kp * n)
	im2col(cols, x[:batch*l.in.Size()], batch, l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
	// Each sample's output is outC×N row-major, exactly the GEMM layout.
	ys := y[:batch*l.out.Size()]
	for s := 0; s < batch; s++ {
		gemm(ys[s*l.outC*n:][:l.outC*n], w, cols[s*kp*n:][:kp*n], l.outC, kp, n, false)
	}
	// Then the bias of output channel oc onto its row, in one pass.
	for s := 0; s < batch; s++ {
		for oc, b := range bias {
			row := ys[(s*l.outC+oc)*n:][:n]
			for i := range row {
				row[i] += b
			}
		}
	}
}

func convBackward[F Float](l *conv2d, params, dy, dx, dparams []F, batch int, sc *scratchOf[F]) {
	kp := l.patchSize()
	n := l.out.H * l.out.W
	nw := l.outC * kp
	w := params[:nw]
	dw := dparams[:nw]
	db := dparams[nw:]
	cols := sc.colBuf(batch * kp * n) // packed by the preceding forward
	dys := dy[:batch*l.out.Size()]
	// dW += dY_s·col_sᵀ (outC×N · N×K), added sample after sample.
	gemmABTBatch(dw, dys, cols, batch, l.outC, n, kp)
	// db[oc] += Σ over output positions of dY_s[oc], sample after sample.
	for s := 0; s < batch; s++ {
		for oc := range db {
			var sum F
			for _, v := range dys[(s*l.outC+oc)*n:][:n] {
				sum += v
			}
			db[oc] += sum
		}
	}
	if dx == nil {
		return // first layer: no input gradient wanted
	}
	// dcol_s = Wᵀ·dY_s (K×outC · outC×N), then scatter the batch back to dX.
	dcol := sc.floatBuf(batch * kp * n)
	for s := 0; s < batch; s++ {
		gemmATB(dcol[s*kp*n:][:kp*n], w, dys[s*l.outC*n:][:l.outC*n], l.outC, kp, n, false)
	}
	dxs := dx[:batch*l.in.Size()]
	zeroF(dxs)
	col2im(dxs, dcol, batch, l.in.C, l.in.H, l.in.W, l.k, l.stride, l.pad, l.out.H, l.out.W)
}
