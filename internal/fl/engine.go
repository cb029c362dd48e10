package fl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// Result is the outcome of one federated training run.
type Result struct {
	// Run is the per-round metric history.
	Run *metrics.Run
	// FinalParams is the algorithm's final output model (z_T for TACO).
	FinalParams []float64
	// Expelled maps expelled client IDs to the round of expulsion.
	Expelled map[int]int
	// CumWeights sums each client's reported aggregation weight across
	// rounds (nil when the run declared no adversaries). Defense metrics
	// derive weight-suppression detection from it: a defended corrupt
	// client accumulates far less mass than the uniform share.
	CumWeights []float64
}

// client is the engine's per-client state record: the data shard, the
// client's deterministic sampling stream, its last reported loss, and —
// with an uplink codec live — its quantization stream and error-feedback
// residual. Training resources (engine, parameter buffers) live in the
// slot pool (pool.go), so a client costs O(1) model-sized memory when
// idle, and the fleet (fleet.go) builds a client only when it first
// participates. adv is the compiled corruption state (adversary.go), nil
// for honest clients.
type client struct {
	id       int
	data     *dataset.Dataset
	sampler  *dataset.Sampler
	lastLoss float64
	adv      *advClient

	// smp and samplerRNG back sampler, and codecRNG drives the codec's
	// stochastic rounding; all are embedded so building a client costs
	// one allocation.
	smp        dataset.Sampler
	samplerRNG rng.RNG
	codecRNG   rng.RNG
	// resid (resid32 under DType "f32") is the error-feedback residual,
	// allocated on the client's first encode (nil = zero vector).
	resid   []float64
	resid32 []float32
}

// Run trains net with the given algorithm over the client shards and
// evaluates on test, returning the full metric history. The run is
// deterministic for a fixed Config.Seed at any parallelism level under
// every aggregation policy (DESIGN.md §4).
func Run(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, err
	}
	defer s.exec.close()

	if err := s.runAll(false); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// Resume rebuilds a run from a checkpoint produced by Config.OnCheckpoint
// (or an external capture of one) and continues it to completion. The
// config, model architecture, algorithm, and client shards must match the
// checkpointed run — a fingerprint in the header rejects mismatches — and
// the resumed run's remaining rounds replay bit-identically to the
// uninterrupted original: same batches, same fault outcomes, same final
// weights.
func Resume(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, checkpoint []byte) (*Result, error) {
	s, err := newScheduler(cfg, alg, net, shards, test)
	if err != nil {
		return nil, err
	}
	defer s.exec.close()

	if err := s.restore(checkpoint, true); err != nil {
		return nil, err
	}
	if err := s.runAll(true); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// result packages the scheduler's final state.
func (s *scheduler) result() *Result {
	return &Result{
		Run:         s.run,
		FinalParams: vecmath.Clone(s.alg.FinalModel(s.params)),
		Expelled:    s.expelled,
		CumWeights:  s.cumWeights,
	}
}

// newScheduler validates the configuration and builds the run state: the
// client identities, the slot pool, and the scheduler's reusable
// per-round buffers (sized once here so steady-state rounds allocate
// nothing; see the alloc regression tests).
func newScheduler(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*scheduler, error) {
	return newSchedulerExec(cfg, alg, net, shards, test, false)
}

// newSchedulerExec is newScheduler with the execution substrate made
// explicit: remote builds a ring-only pool (no slots, no training
// goroutines — clients train in worker processes) and leaves s.exec for
// the caller to swap to the remote executor. Every stream comes from the
// run's stream table (fleet.go), which the wire worker reads too, so a
// wire run's fault plan, participation draws, and quantization streams
// are bit-identical to the in-process run's.
//
// Setup is O(cohort), not O(fleet): clients are built on first
// participation, a nil device fleet means uniform, and every per-round
// buffer is sized to the largest cohort the config can dispatch. What
// stays fleet-sized is a pointer per client, the active flags, and — for
// partial participation — the int32 shuffle buffer participants draws
// from.
func newSchedulerExec(cfg Config, alg Algorithm, net *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset, remote bool) (*scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fc, advIDs, err := newFleet(&cfg, shards)
	if err != nil {
		return nil, err
	}
	n := len(shards)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("fl: %d clients exceeds the fleet limit %d", n, math.MaxInt32)
	}
	if len(cfg.Devices) > 0 && len(cfg.Devices) != n {
		return nil, fmt.Errorf("fl: %d device profiles for %d clients", len(cfg.Devices), n)
	}
	if cfg.isF32() {
		// Checked on the raw algorithm before stacking: the marker is a
		// property of the inner algorithm, and wrappers would hide it.
		if _, ok := alg.(RequiresF64Engine); ok {
			return nil, fmt.Errorf("fl: algorithm %s needs the float64 engine and does not support DType %q", alg.Name(), cfg.DType)
		}
	}

	params := net.InitParams(fc.streams.derive(streamInit, 0))
	numParams := net.NumParams()
	cohort := cfg.maxCohort(n)

	env := &Env{
		Net:        net,
		NumClients: n,
		NumParams:  numParams,
		Devices:    cfg.Devices,
		Cfg:        cfg,
	}
	// Compose the robust-aggregation stack and server optimizer around
	// the algorithm (stack.go); a zero-valued AggStack/ServerOpt returns
	// alg unchanged, keeping the unstacked path untouched.
	alg, err = wrapStack(alg, &cfg)
	if err != nil {
		return nil, err
	}
	alg.Setup(env)

	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}

	// Adversarial clients are built eagerly (O(members)) and compiled
	// from the adversary block of the stream table, which sits after
	// every honest sampler and the participation stream, so declaring
	// adversaries never perturbs honest clients' draws.
	fc.materialize(advIDs)
	if err := setupAdversaries(&cfg, fc.clients, fc.streams.cursor(streamAdversary)); err != nil {
		return nil, err
	}

	var pool *slotPool
	if remote {
		pool = newRingPool(numParams)
	} else {
		pool = newSlotPool(net, cfg, n)
	}
	if fc.streams.codec {
		codec, err := cfg.Compress.Codec()
		if err != nil {
			pool.close()
			return nil, fmt.Errorf("fl: %w", err)
		}
		pool.comp = &compressor{codec: codec, f32: cfg.isF32()}
	}

	baseRound := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, alg.Costs())
	// Fault streams sit last in the table, so a zero-fault config draws
	// nothing and stays bit-identical to the fault-free golden.
	plan := newFaultPlan(&cfg, n, baseRound, fc.streams.cursor(streamFault))

	s := &scheduler{
		cfg:       cfg,
		alg:       alg,
		fleet:     fc,
		env:       env,
		pool:      pool,
		params:    params,
		wPrev:     vecmath.Clone(params),
		active:    active,
		expelled:  make(map[int]int),
		run:       &metrics.Run{Algorithm: alg.Name(), Dataset: test.Name},
		evalEng:   nn.NewEngine(net, min(256, max(1, test.Len()))),
		test:      test,
		baseRound: baseRound,
		partRNG:   fc.streams.derive(streamParticipation, 0),
		plan:      plan,
		ids:       make([]int, 0, cohort),
		include:   make([]int, 0, cohort),
		updates:   make([]Update, cohort),
		measured:  make([]float64, cohort),
		at:        make([]float64, cohort),
	}
	if cohort < n {
		s.shuffle = make([]int32, 0, n)
	}
	s.exec = pool
	s.stack, _ = alg.(*stackedAlg)
	if plan != nil && plan.anyDispatch {
		s.dupFlags = make([]bool, 0, cohort)
		if cfg.Policy == PolicyAsync {
			s.attempts = make([]int, n)
		}
	}
	s.anyAdv = len(advIDs) > 0
	if s.anyAdv {
		s.cumWeights = make([]float64, n)
	}
	s.run.Rounds = make([]metrics.Round, 0, cfg.Rounds)
	s.server = ServerCtx{Env: env, Active: active}
	return s, nil
}

// localUpdate runs the K-step local loop of Eq. (4) with the algorithm's
// corrections applied, producing Δ_i = w_{i,0} − w_{i,K} (Eq. (5)) in the
// caller-provided delta buffer. All model-sized scratch comes from the
// slot; the step itself is fused when the algorithm registers its
// correction via StepCtx.FuseCorrection (one pass over d instead of two).
// smp is the mini-batch source — the client's clean sampler, or a
// corrupted-shard sampler while a data-level attack window is live.
func localUpdate(cfg *Config, alg Algorithm, c *client, sl *slot, delta []float64, round int, global []float64, smp *dataset.Sampler) {
	alg.LocalInit(c.id, round, global, sl.w0)
	alg.BeginLocal(c.id, round, sl.w0)
	copy(sl.w, sl.w0)
	ctx := &sl.ctx
	*ctx = StepCtx{
		Client:  c.id,
		Round:   round,
		W:       sl.w,
		W0:      sl.w0,
		Grad:    sl.grad,
		BatchX:  sl.batchX,
		BatchY:  sl.batchY,
		Eng:     sl.eng,
		Scratch: sl.scratch,
	}
	var lossSum float64
	for k := 0; k < cfg.LocalSteps; k++ {
		smp.Batch(sl.batchX, sl.batchY)
		lossSum += sl.eng.Gradient(sl.w, sl.batchX, sl.batchY, sl.grad)
		ctx.Step = k
		alg.GradAdjust(ctx)
		if ctx.fuseVec != nil {
			vecmath.AXPYPY(-cfg.LocalLR, sl.grad, -cfg.LocalLR*ctx.fuseCoeff, ctx.fuseVec, sl.w)
			ctx.fuseVec = nil
		} else {
			vecmath.AXPY(-cfg.LocalLR, sl.grad, sl.w)
		}
	}
	vecmath.Sub(delta, sl.w0, sl.w)
	alg.EndLocal(c.id, round, delta)
	c.lastLoss = lossSum / float64(cfg.LocalSteps)
}

// localUpdate32 is the float32 twin of localUpdate, selected by
// Config.DType "f32" (DESIGN.md §10). The client trains on the slot's fp32
// state (w32/grad32 through Engine32), but every algorithm hook still sees
// float64: the loop widens w32 and grad32 into sl.w and sl.grad before
// GradAdjust, and applies the hook's correction by narrowing it back to
// fp32 for the fused step. The uploaded delta is the exact float64
// widening of the fp32 trajectory difference narrow(w0) − w32, so the
// aggregation boundary — and everything past it — stays float64.
//
// StepCtx.Eng is nil here: slots carry no float64 engine in fp32 mode, and
// algorithms that need one (RequiresF64Engine) are rejected at setup.
func localUpdate32(cfg *Config, alg Algorithm, c *client, sl *slot, delta []float64, round int, global []float64, smp *dataset.Sampler) {
	alg.LocalInit(c.id, round, global, sl.w0)
	alg.BeginLocal(c.id, round, sl.w0)
	vecmath.Narrow(sl.w32, sl.w0)
	ctx := &sl.ctx
	*ctx = StepCtx{
		Client:  c.id,
		Round:   round,
		W:       sl.w,
		W0:      sl.w0,
		Grad:    sl.grad,
		BatchX:  sl.batchX,
		BatchY:  sl.batchY,
		Scratch: sl.scratch,
	}
	var lossSum float64
	for k := 0; k < cfg.LocalSteps; k++ {
		smp.Batch(sl.batchX, sl.batchY)
		vecmath.Narrow(sl.batchX32, sl.batchX)
		lossSum += sl.eng32.Gradient(sl.w32, sl.batchX32, sl.batchY, sl.grad32)
		vecmath.Widen(sl.w, sl.w32)
		vecmath.Widen(sl.grad, sl.grad32)
		ctx.Step = k
		alg.GradAdjust(ctx)
		if ctx.fuseVec != nil {
			// The correction may vary per step (it is a hook-owned
			// float64 vector), so it is narrowed every iteration; the raw
			// gradient stays valid in grad32 per the FuseCorrection
			// contract.
			vecmath.Narrow(sl.corr32, ctx.fuseVec)
			vecmath.AXPYPY32(-float32(cfg.LocalLR), sl.grad32, -float32(cfg.LocalLR*ctx.fuseCoeff), sl.corr32, sl.w32)
			ctx.fuseVec = nil
		} else {
			// Re-narrow in case the hook rewrote ctx.Grad in place
			// (clipping, scaling); identity when it did not.
			vecmath.Narrow(sl.grad32, sl.grad)
			vecmath.AXPY32(-float32(cfg.LocalLR), sl.grad32, sl.w32)
		}
	}
	// Δ = widen(narrow(w0) − w_K): the fp32 trajectory difference, widened
	// exactly. Subtracting in fp32 first keeps the delta consistent with
	// the weights the client actually trained (w0's bits below fp32
	// precision never entered the trajectory). grad32 is free as a temp
	// after the loop.
	vecmath.Narrow(sl.grad32, sl.w0)
	vecmath.Sub32(sl.grad32, sl.grad32, sl.w32)
	vecmath.Widen(delta, sl.grad32)
	alg.EndLocal(c.id, round, delta)
	c.lastLoss = lossSum / float64(cfg.LocalSteps)
}

// meanLoss averages the training participants' losses. Clients that did
// no training (fabricating adversaries: freeloaders, sybils) report NaN,
// which keeps an honest client whose true mean loss happens to be
// exactly 0 in the average.
func meanLoss(updates []Update) float64 {
	var sum float64
	cnt := 0
	for _, u := range updates {
		if math.IsNaN(u.TrainLoss) {
			continue
		}
		sum += u.TrainLoss
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// SortUpdatesByClient orders updates by client ID; aggregation code relies
// on this for reproducibility. The engine produces them ordered already;
// the helper exists for tests and external callers.
func SortUpdatesByClient(updates []Update) {
	sort.Slice(updates, func(i, j int) bool { return updates[i].Client < updates[j].Client })
}
