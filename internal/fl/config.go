// Package fl implements the federated-learning engine: an event-driven
// scheduler over the parameter-server protocol of Section II of the
// paper, with algorithm hooks that let each method (FedAvg, FedProx,
// FoolsGold, Scaffold, STEM, FedACG, and TACO) plug in its loss
// regularization, per-step gradient correction, and aggregation rule.
// Clients carry device heterogeneity profiles (simclock.DeviceProfile)
// and the server aggregates under a pluggable policy — synchronous
// lock-step, deadline-based straggler dropping, or FedBuff-style
// buffered asynchrony with staleness-damped weights (DESIGN.md §4). The
// engine runs clients in parallel with deterministic per-client random
// streams, so results are bit-identical at any parallelism level; it
// measures both real and modeled client computation time and detects
// divergence (the paper's "×" outcomes).
package fl

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/simclock"
)

// AggregationPolicy selects how the server forms global updates from
// client uploads (DESIGN.md §4).
type AggregationPolicy int

const (
	// PolicySync is the paper's lock-step round: the server waits for
	// every participant, however slow.
	PolicySync AggregationPolicy = iota
	// PolicyDeadline drops stragglers whose modeled finish time exceeds
	// RoundDeadlineSec after the round start and aggregates the rest.
	PolicyDeadline
	// PolicyAsync is FedBuff-style buffered asynchronous aggregation:
	// clients train continuously and the server steps once AsyncBuffer
	// updates have arrived, tagging each with its staleness in server
	// versions.
	PolicyAsync
)

// String implements fmt.Stringer.
func (p AggregationPolicy) String() string {
	switch p {
	case PolicySync:
		return "sync"
	case PolicyDeadline:
		return "deadline"
	case PolicyAsync:
		return "async"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PolicyNames lists the accepted -policy flag values in PolicySync order.
func PolicyNames() []string { return []string{"sync", "deadline", "async"} }

// ParsePolicy converts a flag value into an AggregationPolicy.
func ParsePolicy(s string) (AggregationPolicy, error) {
	switch s {
	case "sync":
		return PolicySync, nil
	case "deadline":
		return PolicyDeadline, nil
	case "async":
		return PolicyAsync, nil
	default:
		return 0, fmt.Errorf("fl: unknown policy %q (valid: %v)", s, PolicyNames())
	}
}

// Config holds the engine parameters shared by every algorithm, following
// the notation of Section II: K local steps of mini-batch SGD with local
// rate ηl, then a server step with global rate ηg.
type Config struct {
	// Rounds is T, the number of communication rounds.
	Rounds int
	// LocalSteps is K, the number of local updates per round.
	LocalSteps int
	// BatchSize is s, the mini-batch size.
	BatchSize int
	// LocalLR is ηl.
	LocalLR float64
	// GlobalLR is ηg; 0 means the paper's default ηg = K·ηl.
	GlobalLR float64
	// Seed drives every random choice in the run.
	Seed uint64
	// DType selects the client-side training compute precision: "f64" (or
	// empty, the default) is the float64 golden path; "f32" runs each
	// client's forward/backward natively in float32 on the AVX2 8-lane
	// kernels (DESIGN.md §10). Precision is a client-compute property
	// only: uploads are widened to float64 at the aggregation boundary,
	// so every aggregation rule, robust stage, server optimizer, and
	// checkpoint runs bit-identical float64 arithmetic under either
	// setting. Algorithms needing in-step float64 gradient evaluations
	// (STEM) reject "f32" at setup.
	DType string
	// Parallelism bounds concurrent client execution; 0 means GOMAXPROCS.
	Parallelism int
	// EvalEvery evaluates test accuracy every this many rounds; 0 means 1.
	EvalEvery int
	// WeightByData selects p_i = D_i/D aggregation weights instead of 1/N
	// for the algorithms that honor static weights.
	WeightByData bool
	// Freeloaders lists client IDs that upload replayed global gradients
	// instead of training (Section IV-A's lazy clients). Sugar for an
	// always-on adversary.Spec{Kind: KindFreeloader, Clients: ...}; the
	// engine normalizes it into the adversary pipeline.
	Freeloaders []int
	// Adversaries declares client corruptions (attack injectors) applied
	// on top of the honest protocol: data-level label attacks,
	// update-level delta injectors, freeloaders, and sybil camps, each
	// optionally gated by an activation window. Specs compose per client
	// (at most one fabricator each); an empty list is the honest run,
	// bit-identical to a config without the field.
	Adversaries []adversary.Spec
	// ParticipationFraction selects the fraction of active clients that
	// train each round (uniformly sampled per round). 0 or 1 means full
	// participation, the paper's setting; values in between exercise the
	// partial-participation extension. Incompatible with PolicyAsync,
	// where every client trains continuously.
	ParticipationFraction float64
	// Policy selects the aggregation policy; the zero value PolicySync
	// reproduces the paper's lock-step engine bit-identically.
	Policy AggregationPolicy
	// RoundDeadlineSec is the deadline policy's per-round straggler
	// cut-off in modeled seconds after the round start. Required positive
	// when Policy is PolicyDeadline; must be zero otherwise.
	RoundDeadlineSec float64
	// AsyncBuffer is the number of buffered client updates that triggers
	// one asynchronous server step (FedBuff's K); 0 means 1, fully
	// asynchronous aggregation. Must be zero unless Policy is PolicyAsync.
	AsyncBuffer int
	// Devices optionally assigns a heterogeneity profile to each client
	// (speed multiplier + availability trace; see simclock.FleetByName).
	// Empty means a uniform always-available fleet; otherwise its length
	// must equal the number of client shards (checked by Run).
	Devices []simclock.DeviceProfile
	// Compress selects the uplink update codec (top-k sparsification or
	// int8 stochastic quantization, each with per-client error-feedback
	// residuals; DESIGN.md §7). The zero value is dense transport,
	// bit-identical to the pre-codec engine.
	Compress compress.Spec
	// Faults declares benign failure injection (DESIGN.md §8): client
	// crashes, uplink loss or duplication, tail-latency spikes, and a
	// simulated server crash. Per-dispatch outcomes draw from dedicated
	// rng streams derived after every honest, adversary, and compression
	// stream, so an empty list is bit-identical to the fault-free golden.
	Faults []fault.Spec
	// FaultRetries is the number of fault-triggered re-dispatches allowed
	// per client dispatch on top of the first attempt; 0 means 2, -1
	// means none. Only meaningful with Faults.
	FaultRetries int
	// FaultTimeoutFactor multiplies a dispatch's fault-free modeled
	// completion time (availability wait + compute) to form its timeout
	// budget; a dispatch not delivered within the budget is retried.
	// 0 means 3; must be >= 1 (a sub-unit budget would time out every
	// dispatch and starve the async policy). Only meaningful with Faults.
	FaultTimeoutFactor float64
	// FaultBackoffSec is the base of the deterministic exponential
	// backoff between retry dispatches (doubled per attempt, jittered
	// from the client's fault stream); 0 means a quarter of the nominal
	// modeled round. Only meaningful with Faults.
	FaultBackoffSec float64
	// Quorum is the fraction of the round's dispatched updates that must
	// be delivered for the round to commit cleanly; below it the round
	// still commits but is recorded as degraded (metrics.Round.Degraded —
	// never silent). 0 disables the check. Sync and deadline policies
	// only, and only meaningful with Faults.
	Quorum float64
	// AggStack declares the composable robust pre-aggregation pipeline
	// (DESIGN.md §9): zeroing and clipping stages, fixed-bound or
	// quantile-matched adaptive, applied to every round's updates before
	// the algorithm's aggregation rule sees them. The zero value is the
	// identity, bit-identical to the pre-stack engine.
	AggStack aggstack.StackSpec
	// ServerOpt selects the FedOpt server optimizer applied to the
	// aggregated pseudo-gradient (fedsgd/adagrad/adam/yogi). The zero
	// value applies none; fedsgd with LR 1 runs the machinery but is
	// bit-identical to none (golden-pinned).
	ServerOpt aggstack.OptSpec
	// CheckpointEvery serializes the full run state (model, per-client
	// algorithm state, EF residuals, rng cursors, async in-flight work)
	// every this many rounds; resume from any checkpoint is bit-identical
	// to the uninterrupted run. It also arms the divergence guard: a
	// round producing non-finite parameters rolls back to the last
	// checkpoint instead of halting. 0 disables periodic checkpoints
	// (a servercrash fault still forces an initial one).
	CheckpointEvery int
	// OnCheckpoint, when set, receives every serialized checkpoint with
	// the 0-based round it resumes at. The byte slice is reused by the
	// next checkpoint; copy it to retain.
	OnCheckpoint func(round int, data []byte)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fl: Rounds %d must be positive", c.Rounds)
	case c.LocalSteps <= 0:
		return fmt.Errorf("fl: LocalSteps %d must be positive", c.LocalSteps)
	case c.BatchSize <= 0:
		return fmt.Errorf("fl: BatchSize %d must be positive", c.BatchSize)
	case c.LocalLR <= 0:
		return fmt.Errorf("fl: LocalLR %v must be positive", c.LocalLR)
	case c.GlobalLR < 0:
		return fmt.Errorf("fl: GlobalLR %v must be non-negative", c.GlobalLR)
	case c.DType != "" && c.DType != "f64" && c.DType != "f32":
		return fmt.Errorf("fl: unknown DType %q (valid: f64, f32)", c.DType)
	case c.ParticipationFraction < 0 || c.ParticipationFraction > 1:
		return fmt.Errorf("fl: ParticipationFraction %v must be in [0,1]", c.ParticipationFraction)
	case c.Policy < PolicySync || c.Policy > PolicyAsync:
		return fmt.Errorf("fl: unknown aggregation policy %d", c.Policy)
	case c.RoundDeadlineSec < 0:
		return fmt.Errorf("fl: RoundDeadlineSec %v must be non-negative", c.RoundDeadlineSec)
	case c.Policy == PolicyDeadline && c.RoundDeadlineSec == 0:
		return fmt.Errorf("fl: PolicyDeadline requires RoundDeadlineSec > 0")
	case c.Policy != PolicyDeadline && c.RoundDeadlineSec != 0:
		return fmt.Errorf("fl: RoundDeadlineSec %v is only meaningful with PolicyDeadline", c.RoundDeadlineSec)
	case c.AsyncBuffer < 0:
		return fmt.Errorf("fl: AsyncBuffer %d must be non-negative", c.AsyncBuffer)
	case c.Policy != PolicyAsync && c.AsyncBuffer != 0:
		return fmt.Errorf("fl: AsyncBuffer %d is only meaningful with PolicyAsync", c.AsyncBuffer)
	case c.Policy == PolicyAsync && c.ParticipationFraction > 0 && c.ParticipationFraction < 1:
		return fmt.Errorf("fl: ParticipationFraction %v is incompatible with PolicyAsync (clients train continuously)", c.ParticipationFraction)
	}
	for i, d := range c.Devices {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("fl: device %d: %w", i, err)
		}
	}
	for _, id := range c.Freeloaders {
		if id < 0 {
			return fmt.Errorf("fl: freeloader id %d must be non-negative", id)
		}
	}
	for i, spec := range c.Adversaries {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("fl: adversary %d: %w", i, err)
		}
	}
	if err := c.Compress.Validate(); err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if len(c.Faults) == 0 {
		switch {
		case c.FaultRetries != 0:
			return fmt.Errorf("fl: FaultRetries %d is only meaningful with Faults", c.FaultRetries)
		case c.FaultTimeoutFactor != 0:
			return fmt.Errorf("fl: FaultTimeoutFactor %v is only meaningful with Faults", c.FaultTimeoutFactor)
		case c.FaultBackoffSec != 0:
			return fmt.Errorf("fl: FaultBackoffSec %v is only meaningful with Faults", c.FaultBackoffSec)
		case c.Quorum != 0:
			return fmt.Errorf("fl: Quorum %v is only meaningful with Faults", c.Quorum)
		}
	} else {
		switch {
		case c.FaultRetries < -1:
			return fmt.Errorf("fl: FaultRetries %d must be >= -1 (-1 disables retries, 0 means the default)", c.FaultRetries)
		case c.FaultTimeoutFactor < 0 || (c.FaultTimeoutFactor > 0 && c.FaultTimeoutFactor < 1):
			return fmt.Errorf("fl: FaultTimeoutFactor %v must be >= 1 (a sub-unit budget times out every dispatch)", c.FaultTimeoutFactor)
		case c.FaultBackoffSec < 0:
			return fmt.Errorf("fl: FaultBackoffSec %v must be non-negative", c.FaultBackoffSec)
		case c.Quorum < 0 || c.Quorum > 1:
			return fmt.Errorf("fl: Quorum %v must be in [0,1]", c.Quorum)
		case c.Quorum > 0 && c.Policy == PolicyAsync:
			return fmt.Errorf("fl: Quorum is incompatible with PolicyAsync (there is no per-round dispatch set)")
		}
		crashes := 0
		for i, spec := range c.Faults {
			if err := spec.Validate(); err != nil {
				return fmt.Errorf("fl: fault %d: %w", i, err)
			}
			if spec.Kind == fault.KindServerCrash {
				crashes++
				if spec.Round >= c.Rounds {
					return fmt.Errorf("fl: servercrash round %d must be < Rounds %d", spec.Round, c.Rounds)
				}
			}
		}
		if crashes > 1 {
			return fmt.Errorf("fl: at most one servercrash fault per run")
		}
	}
	if err := c.AggStack.Validate(); err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if err := c.ServerOpt.Validate(); err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("fl: CheckpointEvery %d must be non-negative", c.CheckpointEvery)
	}
	return nil
}

// isF32 reports whether clients train on the float32 compute path.
func (c Config) isF32() bool { return c.DType == "f32" }

// globalLR resolves the ηg default.
func (c Config) globalLR() float64 {
	if c.GlobalLR > 0 {
		return c.GlobalLR
	}
	return float64(c.LocalSteps) * c.LocalLR
}

// parallelism resolves the worker-pool default.
func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// asyncBuffer resolves the async server-step trigger default.
func (c Config) asyncBuffer() int {
	if c.AsyncBuffer > 0 {
		return c.AsyncBuffer
	}
	return 1
}

// faultRetries resolves the retry-budget default.
func (c Config) faultRetries() int {
	switch {
	case c.FaultRetries > 0:
		return c.FaultRetries
	case c.FaultRetries < 0:
		return 0
	default:
		return 2
	}
}

// faultTimeoutFactor resolves the timeout-budget default.
func (c Config) faultTimeoutFactor() float64 {
	if c.FaultTimeoutFactor > 0 {
		return c.FaultTimeoutFactor
	}
	return 3
}

// faultBackoff resolves the backoff base default against the nominal
// modeled round duration.
func (c Config) faultBackoff(baseRound float64) float64 {
	if c.FaultBackoffSec > 0 {
		return c.FaultBackoffSec
	}
	return 0.25 * baseRound
}

// maxCohort returns the most clients one dispatch can carry over a fleet
// of n: the partial-participation sample size, or the whole fleet (full
// participation, and the async policy's initial wave). Per-round buffers
// are sized to it rather than to the fleet.
func (c Config) maxCohort(n int) int {
	if f := c.ParticipationFraction; f > 0 && f < 1 {
		return max(int(f*float64(n)+0.5), 1)
	}
	return n
}

// evalEvery resolves the evaluation cadence default.
func (c Config) evalEvery() int {
	if c.EvalEvery > 0 {
		return c.EvalEvery
	}
	return 1
}

// adversarySpecs returns the run's full corruption declaration: the
// legacy Freeloaders sugar normalized into a leading freeloader spec
// (IDs sorted and deduplicated, so every downstream iteration is
// deterministic — the old map-backed lookup iterated in random order),
// followed by the explicit Adversaries.
func (c Config) adversarySpecs() []adversary.Spec {
	if len(c.Freeloaders) == 0 {
		return c.Adversaries
	}
	ids := make([]int, len(c.Freeloaders))
	copy(ids, c.Freeloaders)
	sort.Ints(ids)
	uniq := ids[:1]
	for _, id := range ids[1:] {
		if id != uniq[len(uniq)-1] {
			uniq = append(uniq, id)
		}
	}
	specs := make([]adversary.Spec, 0, len(c.Adversaries)+1)
	specs = append(specs, adversary.Spec{Kind: adversary.KindFreeloader, Clients: uniq})
	return append(specs, c.Adversaries...)
}
