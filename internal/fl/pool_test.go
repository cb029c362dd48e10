package fl

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// poolSetup builds an adult federation with n clients for the white-box
// pool tests.
func poolSetup(t testing.TB, n int) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, n, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

// TestSteadyStateAllocs pins the zero-allocation property of warmed-up
// rounds: once the slot pool's delta ring and the scheduler's reusable
// buffers reach their high-water mark, a round allocates nothing under
// any aggregation policy — including with update-level attack injectors
// (sign flip, scaling, delta noise; adversary.go) live on the delta
// checkout path, whose per-client streams and reusable contexts are all
// provisioned at setup, and with an uplink codec live (top-k or int8),
// whose payload buffers ride the delta ring and whose error-feedback
// residuals are lazily allocated during warmup. Evaluation is pushed
// past the measured window (EvalEvery) because test-set accuracy is on
// the eval cadence, not the per-round hot path. Fault injection rides
// the same contract: the fault plan, dup flags, and retry tables are all
// provisioned at setup, so fault-resolved rounds (crash/drop/dup/slow
// draws, retry chains, quorum checks) allocate nothing either —
// checkpoint rounds are excluded (CheckpointEvery 0 here); snapshots
// are allowed to allocate.
func TestSteadyStateAllocs(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	injectors := []adversary.Spec{
		{Kind: adversary.KindSignFlip, Clients: []int{1}},
		{Kind: adversary.KindScale, Clients: []int{3}, Scale: 2},
		{Kind: adversary.KindDeltaNoise, Clients: []int{3, 5}, Scale: 1},
	}
	faultMix := []fault.Spec{
		{Kind: fault.KindCrash, Frac: 0.2},
		{Kind: fault.KindDrop, Frac: 0.15},
		{Kind: fault.KindDup, Frac: 0.2},
		{Kind: fault.KindSlow, Frac: 0.3, Param: 3},
	}
	variants := []struct {
		name     string
		adv      bool
		compress compress.Spec
		faults   []fault.Spec
		quorum   float64
		stacked  bool
		partial  float64
	}{
		{name: "", adv: false},
		{name: "-injectors", adv: true},
		{name: "-topk", compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1}},
		{name: "-int8", compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256}},
		{name: "-faults", faults: faultMix, quorum: 0.5},
		{name: "-faults-int8", faults: faultMix, compress: compress.Spec{Kind: compress.KindInt8, Chunk: 256}},
		// The full aggregation stack (zeroing|clip + FedAdam) rides the
		// same contract: stage scratch, survivor lists, weight re-map
		// buffers, and optimizer moments are all sized at Setup.
		{name: "-stack", stacked: true},
		// Stack + injectors exercises the weight re-map path with the
		// honest/corrupt mass accounting live every round.
		{name: "-stack-injectors", stacked: true, adv: true},
		// Partial participation samples the cohort into reused buffers
		// and builds each client on its first participation; once every
		// client is built, a round allocates nothing.
		{name: "-partial", partial: 0.5},
		{name: "-partial-topk", partial: 0.5, compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1}},
	}
	for _, v := range variants {
		for _, policy := range []AggregationPolicy{PolicySync, PolicyDeadline, PolicyAsync} {
			if v.partial > 0 && policy == PolicyAsync {
				continue // async clients train continuously: no cohort sampling
			}
			name := policy.String() + v.name
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					Rounds:     200,
					LocalSteps: 3,
					BatchSize:  8,
					LocalLR:    0.05,
					Seed:       11,
					EvalEvery:  1000,
					Policy:     policy,
					Compress:   v.compress,

					ParticipationFraction: v.partial,
				}
				if v.adv {
					cfg.Adversaries = injectors
				}
				if v.stacked {
					cfg.AggStack = mustStack(t, "zeroing|clip")
					cfg.ServerOpt = mustOpt(t, "adam:0.1")
				}
				if v.faults != nil {
					cfg.Faults = v.faults
					if policy != PolicyAsync {
						// Quorum is a round-commit concept; async has no rounds.
						cfg.Quorum = v.quorum
					}
				}
				switch policy {
				case PolicyDeadline:
					// Generous deadline: nobody drops, rounds stay uniform.
					cfg.RoundDeadlineSec = 10 * simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
				case PolicyAsync:
					cfg.AsyncBuffer = 3
				}
				s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
				if err != nil {
					t.Fatal(err)
				}
				defer s.pool.close()

				round := 0
				var step func() (bool, error)
				switch policy {
				case PolicyDeadline:
					step = func() (bool, error) { return s.deadlineRound(round) }
				case PolicyAsync:
					if err := s.setupAsync(); err != nil {
						t.Fatal(err)
					}
					step = func() (bool, error) { return s.asyncStep(round) }
				default:
					step = func() (bool, error) { return s.syncRound(round) }
				}

				// Warm up: first rounds grow the delta ring, the engines'
				// backward buffers, and the metric history's capacity.
				// Partial participation keeps warming up until every client
				// has been built (and has trained at least once).
				built := func() bool {
					for _, c := range s.fleet.clients {
						if c == nil {
							return false
						}
					}
					return true
				}
				for ; round < 5 || !built(); round++ {
					if round == 100 {
						t.Fatal("100 warmup rounds did not build every client")
					}
					if halt, err := step(); err != nil || halt {
						t.Fatalf("warmup round %d: halt=%v err=%v", round, halt, err)
					}
				}
				allocs := testing.AllocsPerRun(30, func() {
					halt, err := step()
					if err != nil || halt {
						t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
					}
					round++
				})
				if allocs != 0 {
					t.Fatalf("steady-state %s round allocates %.1f objects/round, want 0", name, allocs)
				}
			})
		}
	}
}

// TestSlotPoolStressBitIdentity is the n ≫ P stress regression: with 32
// clients multiplexed over 1 vs 8 slots the slot→client assignment (and
// hence the buffer reuse pattern) differs completely between the runs,
// yet results must stay bit-identical — any read-before-write leakage of
// slot or engine state would surface here. TACO exercises the fused
// correction path and per-client coefficients on top.
func TestSlotPoolStressBitIdentity(t *testing.T) {
	net, shards, test := poolSetup(t, 32)
	base := Config{
		Rounds:     4,
		LocalSteps: 3,
		BatchSize:  8,
		LocalLR:    0.05,
		Seed:       19,
	}
	for _, algName := range []string{"fedavg", "taco"} {
		t.Run(algName, func(t *testing.T) {
			mk := func() Algorithm {
				if algName == "taco" {
					return newTestTACO(t)
				}
				return goldenFedAvg{}
			}
			cfgA := base
			cfgA.Parallelism = 1
			cfgB := base
			cfgB.Parallelism = 8
			resA, err := Run(cfgA, mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := Run(cfgB, mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if ha, hb := paramsHash(resA.FinalParams), paramsHash(resB.FinalParams); ha != hb {
				t.Fatalf("FinalParams differ across slot counts: %016x vs %016x", ha, hb)
			}
		})
	}
}

// newTestTACO builds a TACO-like correction algorithm without importing
// internal/core (import cycle): a fixed correction vector fused into the
// step plus Scaffold-style per-client state, enough to stress the fused
// path and buffer reuse.
func newTestTACO(t *testing.T) Algorithm { return &fusedCorrAlg{} }

// fusedCorrAlg is a white-box stand-in exercising FuseCorrection with a
// per-client coefficient and cross-round per-client state.
type fusedCorrAlg struct {
	Base
	corr  []float64
	coeff []float64
}

func (a *fusedCorrAlg) Name() string { return "fusedCorr" }
func (a *fusedCorrAlg) Setup(env *Env) {
	a.corr = make([]float64, env.NumParams)
	a.coeff = make([]float64, env.NumClients)
	for i := range a.coeff {
		a.coeff[i] = 0.01 * float64(i+1)
	}
}
func (a *fusedCorrAlg) GradAdjust(ctx *StepCtx) {
	ctx.FuseCorrection(a.coeff[ctx.Client], a.corr)
}
func (a *fusedCorrAlg) Aggregate(s *ServerCtx, updates []Update) {
	FedAvgStep(s, updates)
	// The broadcast correction for the next round is the mean delta in
	// gradient units, as TACO's Eq. (9) does.
	inv := 1 / (float64(s.Env.Cfg.LocalSteps) * s.Env.Cfg.LocalLR * float64(len(updates)))
	for i := range a.corr {
		a.corr[i] = 0
	}
	for _, u := range updates {
		for i, d := range u.Delta {
			a.corr[i] += inv * d
		}
	}
}

// TestSlotPoolMemoryFootprint demonstrates the tentpole memory win: the
// live heap a 500-client run retains with the pooled P=8 configuration
// must be at least 5× smaller than with P=500 (one slot per client — the
// pre-pool layout, where every client owned an engine and its parameter
// buffers). Partial participation keeps the per-round delta ring small,
// as the large-fleet experiments (scale1k) run it.
func TestSlotPoolMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("500-client footprint measurement in -short mode")
	}
	net, shards, test := poolSetup(t, 500)
	cfg := Config{
		Rounds:                50,
		LocalSteps:            2,
		BatchSize:             8,
		LocalLR:               0.05,
		Seed:                  7,
		EvalEvery:             1000,
		ParticipationFraction: 0.1,
	}

	footprint := func(parallelism int) uint64 {
		c := cfg
		c.Parallelism = parallelism
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := newScheduler(c, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		defer s.pool.close()
		for round := 0; round < 3; round++ {
			if halt, err := s.syncRound(round); err != nil || halt {
				t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
			}
		}
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		live := m1.HeapAlloc - m0.HeapAlloc
		runtime.KeepAlive(s)
		return live
	}

	pooled := footprint(8)
	perClient := footprint(500)
	t.Logf("500-client live heap: P=8 pooled %.2f MiB, P=500 per-client %.2f MiB (%.1fx)",
		float64(pooled)/(1<<20), float64(perClient)/(1<<20), float64(perClient)/float64(pooled))
	if float64(perClient) < 5*float64(pooled) {
		t.Fatalf("pooled footprint %d B is not ≥5x smaller than per-client %d B", pooled, perClient)
	}
}

// TestSlotPoolF32Footprint pins the fp32 half of the footprint story.
// The whole-run heap is diluted by dtype-independent server state
// (global model, aggregation buffers, eval machinery — float64 by
// design, DESIGN.md §10), so the test isolates the quantity the DType
// switch actually changes: the per-slot increment, measured as the live
// heap difference between P=8 and P=1 runs divided by the seven extra
// slots. On the CNN model the slot is dominated by its engine's
// activation/gradient/col buffers, which halve exactly under fp32; the
// five float64 bridge buffers each slot keeps for hook visibility pull
// the ratio back up, so the bound is a conservative 0.70 rather than a
// strict 0.5.
func TestSlotPoolF32Footprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement in -short mode")
	}
	train, test, err := dataset.Standard("fmnist", dataset.ScaleSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, 64, 0.5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("fmnist")
	if err != nil {
		t.Fatal(err)
	}
	shards := part.Shards(train)
	cfg := Config{
		Rounds:     50,
		LocalSteps: 2,
		BatchSize:  32, // engine buffers scale with batch; bridge vectors don't
		LocalLR:    0.05,
		Seed:       7,
		EvalEvery:  1000,
	}

	// liveHeap settles the heap before reading: a single GC leaves
	// second-cycle garbage (sync.Pool contents, finalizer chains) from
	// earlier tests in the same binary, which would then be collected
	// between the two readings and deflate the delta.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	footprint := func(dtype string, parallelism int) uint64 {
		c := cfg
		c.DType = dtype
		c.Parallelism = parallelism
		before := liveHeap()
		s, err := newScheduler(c, goldenFedAvg{}, net, shards, test)
		if err != nil {
			t.Fatal(err)
		}
		defer s.pool.close()
		// Three rounds force the lazily allocated state (engine gradient
		// buffers, delta ring) to its steady-state high-water mark.
		for round := 0; round < 3; round++ {
			if halt, err := s.syncRound(round); err != nil || halt {
				t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
			}
		}
		live := liveHeap() - before
		runtime.KeepAlive(s)
		return live
	}

	perSlot := func(dtype string) float64 {
		p8 := footprint(dtype, 8)
		p1 := footprint(dtype, 1)
		return float64(p8-p1) / 7
	}

	slot64 := perSlot("")
	slot32 := perSlot("f32")
	ratio := slot32 / slot64
	t.Logf("fmnist per-slot live heap: f64 %.1f KiB, f32 %.1f KiB (f32/f64 = %.2f)",
		slot64/(1<<10), slot32/(1<<10), ratio)
	if ratio > 0.70 {
		t.Fatalf("f32 per-slot heap %.0f B is not ≤0.70x the f64 per-slot heap %.0f B", slot32, slot64)
	}
}

// TestDeltaRingReuse checks the ring's steady state directly: after a few
// sync rounds with a fixed participant count the free list stops growing.
func TestDeltaRingReuse(t *testing.T) {
	net, shards, test := poolSetup(t, 8)
	cfg := Config{Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 3, EvalEvery: 1000}
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.close()
	for round := 0; round < 3; round++ {
		if halt, err := s.syncRound(round); err != nil || halt {
			t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
		}
	}
	high := len(s.pool.free)
	if high != 8 {
		t.Fatalf("delta ring holds %d buffers after full-participation rounds, want 8", high)
	}
	for round := 3; round < 6; round++ {
		if halt, err := s.syncRound(round); err != nil || halt {
			t.Fatalf("round %d: halt=%v err=%v", round, halt, err)
		}
	}
	if len(s.pool.free) != high {
		t.Fatalf("delta ring grew from %d to %d buffers in steady state", high, len(s.pool.free))
	}
}
