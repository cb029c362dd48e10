package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide %d/64 times", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c0 := parent.Derive("client", 0)
	parent2 := New(7)
	c0b := parent2.Derive("client", 0)
	for i := 0; i < 50; i++ {
		if c0.Uint64() != c0b.Uint64() {
			t.Fatal("derived stream must be reproducible from the parent seed")
		}
	}
	parent3 := New(7)
	c1 := parent3.Derive("client", 1)
	c0c := New(7).Derive("client", 0)
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c0c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("derived streams with different indices must differ")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Normal mean = %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance = %v, want ≈4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(alpha) with scale 1 has mean alpha and variance alpha.
	for _, alpha := range []float64{0.2, 0.5, 1, 2.5, 10} {
		r := New(13)
		const n = 150000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := r.Gamma(alpha)
			if v < 0 {
				t.Fatalf("Gamma(%v) produced negative sample %v", alpha, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-alpha) > 0.05*math.Max(1, alpha) {
			t.Fatalf("Gamma(%v) mean = %v, want ≈%v", alpha, mean, alpha)
		}
		if math.Abs(variance-alpha) > 0.12*math.Max(1, alpha) {
			t.Fatalf("Gamma(%v) variance = %v, want ≈%v", alpha, variance, alpha)
		}
	}
}

func TestGammaPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha <= 0")
		}
	}()
	New(1).Gamma(0)
}

func TestDirichletSimplex(t *testing.T) {
	r := New(17)
	for _, phi := range []float64{0.1, 0.5, 1, 5} {
		for trial := 0; trial < 200; trial++ {
			p := r.Dirichlet(phi, 10)
			var sum float64
			for _, v := range p {
				if v < 0 {
					t.Fatalf("Dirichlet produced negative weight %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet weights sum to %v, want 1", sum)
			}
		}
	}
}

func TestDirichletSkewIncreasesAsPhiShrinks(t *testing.T) {
	// With small phi, most mass concentrates on few categories; measure the
	// average max weight.
	avgMax := func(phi float64) float64 {
		r := New(19)
		var total float64
		const trials = 500
		for i := 0; i < trials; i++ {
			p := r.Dirichlet(phi, 10)
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			total += m
		}
		return total / trials
	}
	small := avgMax(0.1)
	large := avgMax(10)
	if small <= large {
		t.Fatalf("expected Dir(0.1) to be more skewed than Dir(10): %v vs %v", small, large)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(23)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-weight category was sampled")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("category ratio = %v, want ≈3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	t.Run("all zero", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(1).Categorical([]float64{0, 0})
	})
	t.Run("negative", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(1).Categorical([]float64{1, -1})
	})
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(29)
	got := r.SampleWithoutReplacement(10, 5)
	if len(got) != 5 {
		t.Fatalf("got %d samples, want 5", len(got))
	}
	seen := make(map[int]bool, len(got))
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

// TestDrawAtMatchesSequential pins the jump-ahead: the k-th draw computed
// in O(log k) equals the k-th of k+1 sequential Uint64 draws, and NewAt
// continues exactly where the sequential stream stands.
func TestDrawAtMatchesSequential(t *testing.T) {
	ks := []uint64{0, 1, 2, 3, 1000, 999999}
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, ^uint64(0)} {
		seq := New(seed)
		var drawn uint64
		for _, k := range ks {
			for ; drawn < k; drawn++ {
				seq.Uint64()
			}
			at := NewAt(seed, k)
			want, _ := seq.MarshalBinary()
			got, _ := at.MarshalBinary()
			if string(want) != string(got) {
				t.Fatalf("seed %#x k %d: NewAt cursor %x, sequential %x", seed, k, got, want)
			}
			v := DrawAt(seed, k)
			if w := seq.Uint64(); v != w {
				t.Fatalf("seed %#x k %d: DrawAt %#x, sequential %#x", seed, k, v, w)
			}
			drawn++
			if a := at.Uint64(); a != v {
				t.Fatalf("seed %#x k %d: NewAt's next draw %#x, want %#x", seed, k, a, v)
			}
		}
	}
}

// TestDeriveSeedMatchesDerive pins that a child computed from its draw
// index is the child sequential Derive calls hand out.
func TestDeriveSeedMatchesDerive(t *testing.T) {
	root := New(7)
	for k := 0; k < 50; k++ {
		want := root.Derive("sampler", k)
		got := New(DeriveSeed(7, uint64(k), "sampler", k))
		for i := 0; i < 4; i++ {
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("child %d draw %d: DeriveSeed %#x, Derive %#x", k, i, b, a)
			}
		}
	}
}

// TestShuffleIntoMatchesPerm pins the allocation-free shuffle against
// Rand.Perm: same permutation, same stream cursor afterwards.
func TestShuffleIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 100000} {
		a, b := New(uint64(n)), New(uint64(n))
		want := a.Perm(n)
		got := make([]int32, n)
		for i := range got {
			got[i] = int32(i)
		}
		ShuffleInto(b, got)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: position %d is %d, Perm has %d", n, i, got[i], want[i])
			}
		}
		ca, _ := a.MarshalBinary()
		cb, _ := b.MarshalBinary()
		if string(ca) != string(cb) {
			t.Fatalf("n=%d: cursor after ShuffleInto %x, after Perm %x", n, cb, ca)
		}
		if allocs := testing.AllocsPerRun(5, func() { ShuffleInto(b, got) }); allocs != 0 {
			t.Fatalf("n=%d: ShuffleInto allocates %.0f objects", n, allocs)
		}
	}
}
