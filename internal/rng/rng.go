// Package rng provides the deterministic random-number machinery used by
// every stochastic component in the repository: dataset synthesis, non-IID
// partitioning (Dirichlet label skew), mini-batch sampling, and parameter
// initialization.
//
// Determinism contract: every experiment takes one uint64 seed. Components
// that run concurrently (for example the clients inside one FL round) must
// each own an RNG derived via Derive with a distinct stream label, so that
// results are bit-identical regardless of goroutine scheduling or the
// parallelism level.
package rng

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random source with the distribution samplers this
// repository needs beyond math/rand/v2. It retains its underlying PCG so
// the stream cursor can be checkpointed (MarshalBinary) and restored
// (UnmarshalBinary) for bit-identical resume. The PCG lives inside the
// struct and src draws from it, so an RNG is one allocation and can be
// embedded in a longer-lived record (Reset seeds it in place); it must
// not be copied once seeded.
type RNG struct {
	pcg rand.PCG
	src rand.Rand
}

// golden is the second PCG word's fixed offset from the seed, so that
// nearby seeds still produce decorrelated streams.
const golden = 0x9e3779b97f4a7c15

// New returns an RNG seeded with the given seed.
func New(seed uint64) *RNG {
	r := new(RNG)
	r.Reset(seed)
	return r
}

// Reset re-seeds r in place: afterwards it draws exactly the stream
// New(seed) would.
func (r *RNG) Reset(seed uint64) {
	r.pcg.Seed(seed, seed^golden)
	r.src = *rand.New(&r.pcg)
}

// MarshalBinary captures the stream cursor. Every sampler in this package
// draws statelessly from the underlying source, so the cursor alone is the
// full RNG state.
func (r *RNG) MarshalBinary() ([]byte, error) { return r.pcg.MarshalBinary() }

// UnmarshalBinary restores a cursor captured by MarshalBinary; subsequent
// draws continue the original stream bit-identically.
func (r *RNG) UnmarshalBinary(data []byte) error { return r.pcg.UnmarshalBinary(data) }

// Derive returns a new independent RNG whose stream is a pure function of
// the label, the index, and this RNG's next draw (the parent advances by
// exactly one Uint64). To keep parallel client execution deterministic,
// call Derive for all children before any of them starts consuming
// randomness — or compute a child directly from its draw index with
// DeriveSeed.
func (r *RNG) Derive(label string, index int) *RNG {
	return New(r.src.Uint64() ^ mix(label, index))
}

// DeriveSeed returns the seed of the child that Derive(label, index)
// would return if called on New(seed) after exactly k draws, in O(log k)
// steps: New(DeriveSeed(seed, k, label, index)) is that child.
func DeriveSeed(seed, k uint64, label string, index int) uint64 {
	return DrawAt(seed, k) ^ mix(label, index)
}

// DrawAt returns the k-th (0-based) Uint64 of New(seed)'s stream without
// drawing the k before it. Each draw of math/rand/v2's PCG is one step of
// a 128-bit LCG followed by the DXSM output function, so the state after
// k steps has a closed form computed by square-and-multiply (Brown 1994,
// "Random Number Generation with Arbitrary Strides"). The skipped state is
// loaded into a stdlib PCG, whose own Uint64 takes the final step and
// applies the output function.
func DrawAt(seed, k uint64) uint64 {
	hi, lo := skip(seed, seed^golden, k)
	var p rand.PCG
	p.Seed(hi, lo)
	return p.Uint64()
}

// NewAt returns the stream New(seed) continues with after k draws.
func NewAt(seed, k uint64) *RNG {
	r := New(seed)
	r.pcg.Seed(skip(seed, seed^golden, k))
	return r
}

// The LCG of math/rand/v2's PCG (pcg.go): state ← state·mul + inc mod 2¹²⁸.
const (
	lcgMulHi = 2549297995355413924
	lcgMulLo = 4865540595714422341
	lcgIncHi = 6364136223846793005
	lcgIncLo = 1442695040888963407
)

// mul128 and add128 are 128-bit arithmetic mod 2¹²⁸ on (hi, lo) pairs.
func mul128(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(alo, blo)
	hi += ahi*blo + alo*bhi
	return hi, lo
}

func add128(ahi, alo, bhi, blo uint64) (hi, lo uint64) {
	lo, c := bits.Add64(alo, blo, 0)
	hi, _ = bits.Add64(ahi, bhi, c)
	return hi, lo
}

// skip advances the LCG state (hi, lo) by k steps in O(log k): it folds
// the k-step affine map (mul^k, inc·(mul^k−1)/(mul−1)) out of the
// repeated squares of the one-step map.
func skip(hi, lo, k uint64) (uint64, uint64) {
	accMulHi, accMulLo := uint64(0), uint64(1)
	var accIncHi, accIncLo uint64
	curMulHi, curMulLo := uint64(lcgMulHi), uint64(lcgMulLo)
	curIncHi, curIncLo := uint64(lcgIncHi), uint64(lcgIncLo)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			accMulHi, accMulLo = mul128(accMulHi, accMulLo, curMulHi, curMulLo)
			accIncHi, accIncLo = mul128(accIncHi, accIncLo, curMulHi, curMulLo)
			accIncHi, accIncLo = add128(accIncHi, accIncLo, curIncHi, curIncLo)
		}
		// One-step map composed with itself: (m, c) ∘ (m, c) = (m², c·(m+1)).
		mp1Hi, mp1Lo := add128(curMulHi, curMulLo, 0, 1)
		curIncHi, curIncLo = mul128(curIncHi, curIncLo, mp1Hi, mp1Lo)
		curMulHi, curMulLo = mul128(curMulHi, curMulLo, curMulHi, curMulLo)
	}
	hi, lo = mul128(accMulHi, accMulLo, hi, lo)
	return add128(hi, lo, accIncHi, accIncLo)
}

// mix is the FNV-1a hash of label followed by index as 8 little-endian
// bytes — the per-child salt Derive folds into the parent's draw.
func mix(label string, index int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * prime
	}
	v := uint64(index)
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * prime
	}
	return h
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// ShuffleInto permutes p in place with exactly the swaps and draws
// Perm(len(p)) makes: on p = [0, n) it leaves p equal to Perm(n) and the
// stream where Perm would, without allocating. On any other contents it
// leaves p[i] = old p[Perm(n)[i]].
func ShuffleInto[T any](r *RNG, p []T) {
	// rand.Rand.Shuffle's Fisher–Yates loop, with its swap callback
	// inlined: Uint64N is the same bounded draw Shuffle makes.
	for i := len(p) - 1; i > 0; i-- {
		j := r.src.Uint64N(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// Gamma returns a sample from the Gamma distribution with shape alpha > 0
// and scale 1, using the Marsaglia–Tsang squeeze method (2000). For
// alpha < 1 it applies the standard boost Gamma(a) = Gamma(a+1)·U^(1/a).
func (r *RNG) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("rng: Gamma requires alpha > 0")
	}
	if alpha < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns a sample from the symmetric Dirichlet distribution with
// concentration parameter phi over k categories. Smaller phi values produce
// more skewed (sparser) probability vectors — the standard non-IID
// label-skew generator in FL research.
func (r *RNG) Dirichlet(phi float64, k int) []float64 {
	if k <= 0 {
		panic("rng: Dirichlet requires k > 0")
	}
	out := make([]float64, k)
	r.DirichletInto(phi, out)
	return out
}

// DirichletInto fills dst with a symmetric Dirichlet(phi) sample over
// len(dst) categories, consuming exactly the stream draws Dirichlet
// would — callers batching many draws (the Dirichlet partitioner) reuse
// one buffer without perturbing the sequence.
func (r *RNG) DirichletInto(phi float64, dst []float64) {
	if len(dst) == 0 {
		panic("rng: Dirichlet requires k > 0")
	}
	var sum float64
	for i := range dst {
		g := r.Gamma(phi)
		dst[i] = g
		sum += g
	}
	if sum == 0 {
		// Numerically possible for tiny phi: fall back to a one-hot vector.
		for i := range dst {
			dst[i] = 0
		}
		dst[r.IntN(len(dst))] = 1
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Categorical returns an index sampled according to the (not necessarily
// normalized) non-negative weights. It panics when all weights are zero.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical requires non-negative weights")
		}
		total += w
	}
	if total == 0 {
		panic("rng: Categorical requires at least one positive weight")
	}
	u := r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1 // floating-point edge: return the last category
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics when k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement requires k <= n")
	}
	perm := r.Perm(n)
	return perm[:k]
}
