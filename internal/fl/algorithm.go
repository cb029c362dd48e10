package fl

import (
	"math"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// Env describes the fixed environment an algorithm trains in. It is handed
// to Setup once before round 0.
type Env struct {
	// Net is the shared model architecture.
	Net *nn.Network
	// NumClients is N (full participation).
	NumClients int
	// NumParams is the flat parameter-vector length.
	NumParams int
	// DataSizes is D_i per client when the caller provides it. The
	// engine leaves it nil — a fleet-sized table would make setup
	// O(fleet) — and every Update carries its client's D_i as NumSamples.
	DataSizes []int
	// Devices is the per-client device fleet, so algorithms can inspect
	// the heterogeneity regime they train under; nil means uniform (every
	// device nominal and always available).
	Devices []simclock.DeviceProfile
	// Cfg is the engine configuration.
	Cfg Config
}

// StepCtx is the per-local-step context passed to GradAdjust. The hook may
// mutate Grad in place; every other field is read-only by convention.
type StepCtx struct {
	// Client is the client ID, Round the communication round, Step the
	// local step index k ∈ [K].
	Client, Round, Step int
	// W is the client's current local parameter vector w_{i,k}.
	W []float64
	// W0 is the round's local starting point w_{i,0}.
	W0 []float64
	// Grad is the mini-batch gradient g_{i,k}, to be adjusted in place.
	Grad []float64
	// BatchX and BatchY are the sampled mini-batch, available to
	// algorithms that need additional gradient evaluations (STEM).
	BatchX []float64
	BatchY []int
	// Eng is the client's execution engine for extra evaluations. It is
	// nil under Config.DType "f32"; algorithms that use it must declare
	// the dependency via RequiresF64Engine so fp32 runs reject them at
	// setup instead of panicking mid-round.
	Eng *nn.Engine
	// Scratch is a NumParams-sized scratch vector owned by the client.
	Scratch []float64

	// fuseCoeff and fuseVec hold a correction registered by
	// FuseCorrection for the engine to fold into the SGD step.
	fuseCoeff float64
	fuseVec   []float64
}

// FuseCorrection registers the additive correction coeff·corr for this
// step: instead of the algorithm mutating Grad (one full pass over d) and
// the engine then applying the step (a second pass), the engine performs
// the corrected step w ← w − ηl·(g + coeff·corr) in a single fused pass
// (vecmath.AXPYPY). corr must stay valid until the step completes and is
// read-only; Grad keeps the raw mini-batch gradient, so algorithms that
// need the adjusted gradient materialized (STEM's momentum recursion)
// should keep mutating Grad instead. The registration is consumed by the
// step; call it again on the next step to keep the correction applied.
func (c *StepCtx) FuseCorrection(coeff float64, corr []float64) {
	c.fuseCoeff, c.fuseVec = coeff, corr
}

// Correction returns the fused correction registered for this step (nil
// vector when the algorithm mutated Grad directly instead). Diagnostic
// accessor for tests; the engine consumes the registration itself.
func (c *StepCtx) Correction() (coeff float64, corr []float64) {
	return c.fuseCoeff, c.fuseVec
}

// Update is one client's upload for a round: the accumulated local
// gradient Δ_i = w_{i,0} − w_{i,K} of Eq. (5).
type Update struct {
	// Client is the uploading client's ID.
	Client int
	// Delta is Δ_i (length NumParams). The engine owns the backing array;
	// algorithms must copy anything they keep across rounds.
	Delta []float64
	// NumSamples is D_i, for data-weighted aggregation.
	NumSamples int
	// TrainLoss is the client's mean mini-batch loss across the round.
	TrainLoss float64
	// Staleness counts the server versions that elapsed between the
	// client starting this local round and the server consuming the
	// update: 0 for the synchronous and deadline policies, ≥ 0 under
	// buffered asynchronous aggregation. Aggregation rules damp stale
	// updates via StalenessDamp.
	Staleness int
	// Corrupt marks an upload from a client designated adversarial by
	// the run's corruption specs (ground truth for defense metrics;
	// window-gated attackers are marked even while dormant). Aggregation
	// rules must NOT read it — defenses only see the update geometry.
	Corrupt bool
	// Payload is the encoded on-the-wire form of the upload when the run
	// compresses updates (nil for dense transport). Delta always holds
	// the decoded dense view, so the two never disagree; rules that can
	// exploit sparse form should go through AddScaled/Norm,
	// which pick the O(k) kernels automatically. Like Delta, the backing
	// buffers belong to the engine's ring.
	Payload *compress.Payload
	// ring is the pool's buffer-ownership handle (pool.go).
	ring *upload
}

// AddScaled accumulates alpha·Δ_i into dst. When the update carries a
// sparse payload the accumulation scatters the k kept coordinates
// (vecmath.ScatterAXPY) instead of walking all d, so aggregating a top-k
// round is O(n·k) server work.
func (u *Update) AddScaled(alpha float64, dst []float64) {
	if u.Payload != nil && u.Payload.Sparse() {
		vecmath.ScatterAXPY(alpha, u.Payload.Idx, u.Payload.Val, dst)
		return
	}
	vecmath.AXPY(alpha, u.Delta, dst)
}

// Norm returns ‖Δ_i‖ with overflow-safe accumulation (the upload is not
// under the server's control), over the sparse values when available —
// the dropped coordinates are exact zeros, so the sparse and dense norms
// agree.
func (u *Update) Norm() float64 {
	if u.Payload != nil && u.Payload.Sparse() {
		return vecmath.Norm2Safe(u.Payload.Val)
	}
	return vecmath.Norm2Safe(u.Delta)
}

// CosineWith returns cos(Δ_i, y) under the CosineSimilarity conventions
// (0 for a degenerate vector, clamped to [−1, 1]). The sparse path costs
// O(k) beyond y's norm; callers looping over many updates against one
// reference vector can pass y's precomputed MaxAbs-rescaled norm via
// CosineWithNorm to stay O(k) per update.
func (u *Update) CosineWith(y []float64) float64 {
	if u.Payload == nil || !u.Payload.Sparse() {
		return vecmath.CosineSimilarity(u.Delta, y)
	}
	my := vecmath.MaxAbs(y)
	if my == 0 {
		return 0
	}
	return u.CosineWithNorm(y, my, vecmath.Norm2Safe(y)/my)
}

// CosineWithNorm is CosineWith given y's precomputed largest magnitude
// my = MaxAbs(y) (non-zero) and rescaled norm ny = ‖y/my‖. The sparse
// inner product runs through the AVX2 gather kernel (vecmath.GatherDot)
// and normalizes afterwards; when the raw product overflows, both sides
// are rescaled by their largest magnitudes first — the same overflow
// guard CosineSimilarity applies to dense uploads.
func (u *Update) CosineWithNorm(y []float64, my, ny float64) float64 {
	p := u.Payload
	if p == nil || !p.Sparse() {
		return vecmath.CosineSimilarity(u.Delta, y)
	}
	if ny == 0 || math.IsNaN(ny) {
		return 0
	}
	nv := vecmath.Norm2Safe(p.Val)
	if nv == 0 {
		return 0
	}
	if dot := vecmath.GatherDot(p.Idx, p.Val, y); !math.IsNaN(dot) && !math.IsInf(dot, 0) {
		if c := dot / (nv * my * ny); !math.IsNaN(c) && !math.IsInf(c, 0) {
			return vecmath.Clamp(c, -1, 1)
		}
	}
	mv := vecmath.MaxAbs(p.Val)
	if mv == 0 || math.IsNaN(mv) {
		return 0
	}
	invV, invY := 1/mv, 1/my
	var dot, snv float64
	for j, i := range p.Idx {
		sv := p.Val[j] * invV
		dot += sv * (y[i] * invY)
		snv += sv * sv
	}
	if snv == 0 {
		return 0
	}
	return vecmath.Clamp(dot/(math.Sqrt(snv)*ny), -1, 1)
}

// ServerCtx is the aggregation context. Aggregate must write the next
// global model into W (in place).
type ServerCtx struct {
	// Round is the completed communication round t.
	Round int
	// W is the global model w^t, to be advanced to w^{t+1} in place.
	W []float64
	// WPrev is a stable copy of w^t (W's value at entry to Aggregate), so
	// aggregation rules that advance W in place can still read the
	// pre-aggregation model, e.g. TACO's z_t output (Eq. (15)).
	WPrev []float64
	// Env echoes the training environment.
	Env *Env
	// Active flags which clients are still participating.
	Active []bool

	expelled []int
	weights  []float64
	reported []float64
}

// Expel schedules a client's removal from all future rounds (TACO's
// freeloader expulsion, Algorithm 2 line 12).
func (s *ServerCtx) Expel(client int) {
	s.expelled = append(s.expelled, client)
}

// GlobalLR returns ηg with the paper's K·ηl default applied.
func (s *ServerCtx) GlobalLR() float64 { return s.Env.Cfg.globalLR() }

// AggregationWeights returns the Eq. (6) weights over the updates (see
// the package-level AggregationWeights for the rule), backed by a scratch
// buffer owned by the context so steady-state aggregation allocates
// nothing. The slice is valid until the next call on this context. The
// weights are also recorded as the rule's reported weights (see
// ReportWeights); rules that re-weight further must report again.
func (s *ServerCtx) AggregationWeights(updates []Update) []float64 {
	if cap(s.weights) < len(updates) {
		s.weights = make([]float64, len(updates))
	}
	w := s.weights[:len(updates)]
	aggregationWeightsInto(w, updates, s.Env.Cfg.WeightByData)
	s.ReportWeights(w)
	return w
}

// ReportWeights records the per-update aggregation weights the rule
// actually used this round (w[i] belongs to updates[i] of the Aggregate
// call), copied into a context-owned buffer. The engine derives the
// honest-vs-corrupt weight-mass metrics and per-client cumulative weights
// from the last report of each round; rules with tailored weightings
// (TACO's α-weights, FoolsGold's similarity weights) call this with their
// normalized weights, and ServerCtx.AggregationWeights reports
// automatically for every rule built on it.
func (s *ServerCtx) ReportWeights(w []float64) {
	if cap(s.reported) < len(w) {
		s.reported = make([]float64, len(w))
	}
	s.reported = s.reported[:len(w)]
	copy(s.reported, w)
}

// Algorithm is the hook set an FL method implements. Hooks prefixed
// "Local" run concurrently for different clients: implementations must
// confine per-client mutable state to per-client storage.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Setup is called once with the environment before round 0.
	Setup(env *Env)
	// LocalInit writes the client's round-t starting parameters into out
	// (usually the global model w; FedACG adds server momentum).
	LocalInit(client, round int, w []float64, out []float64)
	// BeginLocal runs once per client per round before the local loop.
	BeginLocal(client, round int, w0 []float64)
	// GradAdjust applies the method's per-step correction to ctx.Grad.
	GradAdjust(ctx *StepCtx)
	// EndLocal runs after the local loop with the client's delta
	// (read-only; the engine reuses the buffer).
	EndLocal(client, round int, delta []float64)
	// Aggregate combines the round's updates into the next global model.
	Aggregate(s *ServerCtx, updates []Update)
	// Costs reports the modeled per-step computation profile.
	Costs() simclock.Costs
	// FinalModel maps aggregated parameters to the evaluation model
	// (identity for all methods except TACO's z_t, Eq. (15)).
	FinalModel(w []float64) []float64
	// MeanAlpha reports the mean correction coefficient of the last
	// aggregation for diagnostics; algorithms without one return 0.
	MeanAlpha() float64
}

// RequiresF64Engine marks algorithms whose hooks call StepCtx.Eng — the
// client's float64 engine — for extra evaluations (STEM's previous-round
// gradient). Runs with Config.DType "f32" carry no float64 engine in
// their slots, so newScheduler rejects marked algorithms up front with a
// clear error instead of letting a hook hit a nil engine mid-round.
type RequiresF64Engine interface {
	// RequiresF64Engine is a marker; it is never called.
	RequiresF64Engine()
}

// Base provides no-op defaults for the optional Algorithm hooks; concrete
// algorithms embed it and override what they need.
type Base struct{}

// Setup implements Algorithm.
func (Base) Setup(*Env) {}

// LocalInit implements Algorithm with the standard w_{i,0} ← w^t.
func (Base) LocalInit(_, _ int, w []float64, out []float64) { copy(out, w) }

// BeginLocal implements Algorithm.
func (Base) BeginLocal(int, int, []float64) {}

// GradAdjust implements Algorithm.
func (Base) GradAdjust(*StepCtx) {}

// EndLocal implements Algorithm.
func (Base) EndLocal(int, int, []float64) {}

// Costs implements Algorithm with the plain FedAvg profile.
func (Base) Costs() simclock.Costs { return simclock.Plain() }

// FinalModel implements Algorithm as the identity.
func (Base) FinalModel(w []float64) []float64 { return w }

// MeanAlpha implements Algorithm.
func (Base) MeanAlpha() float64 { return 0 }

// StalenessDamp returns the FedBuff-style polynomial damping factor
// 1/√(1+s) applied to an update that is s server versions stale. Fresh
// updates (s ≤ 0) keep weight 1 exactly, so synchronous aggregation is
// bit-identical with or without the damping in the formula.
func StalenessDamp(staleness int) float64 {
	if staleness <= 0 {
		return 1
	}
	return 1 / math.Sqrt(1+float64(staleness))
}

// AggregationWeights returns the weights p_i of Eq. (6) over the active
// updates: D_i/D when cfg.WeightByData, else 1/N_active. When any update
// is stale (async policy), each base weight is damped by
// StalenessDamp(s_i) and the result renormalized; with all-fresh updates
// the legacy weights are returned bit-identically.
func AggregationWeights(updates []Update, weightByData bool) []float64 {
	weights := make([]float64, len(updates))
	aggregationWeightsInto(weights, updates, weightByData)
	return weights
}

// aggregationWeightsInto computes AggregationWeights into the caller's
// buffer (len(weights) == len(updates)).
func aggregationWeightsInto(weights []float64, updates []Update, weightByData bool) {
	if weightByData {
		total := 0
		for _, u := range updates {
			total += u.NumSamples
		}
		for i, u := range updates {
			weights[i] = float64(u.NumSamples) / float64(total)
		}
	} else {
		for i := range weights {
			weights[i] = 1 / float64(len(updates))
		}
	}
	anyStale := false
	for _, u := range updates {
		if u.Staleness > 0 {
			anyStale = true
			break
		}
	}
	if !anyStale {
		return
	}
	var sum float64
	for i, u := range updates {
		weights[i] *= StalenessDamp(u.Staleness)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] /= sum
	}
}

// FedAvgStep applies the vanilla aggregation of Eq. (6) with ∆^{t+1} =
// Σ p_i ∆_i / (K·ηl): with the default ηg = K·ηl the global model moves by
// the weighted mean client delta. Shared by FedAvg, FedProx, and Scaffold.
// Sparse uploads fold in via their O(k) scatter view (Update.AddScaled).
func FedAvgStep(s *ServerCtx, updates []Update) {
	weights := s.AggregationWeights(updates)
	scale := s.GlobalLR() / (float64(s.Env.Cfg.LocalSteps) * s.Env.Cfg.LocalLR)
	for i := range updates {
		updates[i].AddScaled(-weights[i]*scale, s.W)
	}
}
