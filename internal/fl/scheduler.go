package fl

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// scheduler is the event-driven round engine behind Run. One instance
// drives one training run under one aggregation policy; its virtual clock
// is modeled (simclock) time, so every scheduling decision — straggler
// drops, arrival order, staleness — is a pure function of the config and
// therefore bit-reproducible at any parallelism level.
//
// Local computation is fixed when a client is *dispatched*, not when its
// modeled finish event fires: the algorithm state a client reads
// (correction vectors, control variates) is exactly the state at its
// dispatch version, which is what makes stale-correction dynamics
// faithful without racing the server's aggregation step. Per-client
// algorithm state written by EndLocal therefore reflects the client's
// latest dispatched round, which under the async policy may be ahead of
// an update still waiting in the server buffer. The async policy parks
// each re-dispatch — its schedule decided, its computation deferred —
// and runs a step's parked rounds as one parallel batch before anything
// observes or changes their inputs (park/flush; DESIGN.md §4).
//
// Steady-state rounds are allocation-free: the per-round ids/updates/
// measured slices, the aggregation context, the async flight table, and
// the upload deltas (slot-pool ring, pool.go) are all owned by the
// scheduler and reused round over round (pinned by TestSteadyStateAllocs).
type scheduler struct {
	cfg   Config
	alg   Algorithm
	fleet *fleet
	env   *Env
	pool  *slotPool
	// exec runs dispatched local rounds: the slot pool itself for an
	// in-process run, the remote executor for a wire run (serve.go). Every
	// scheduling path goes through it; s.pool remains for the ring-and-
	// compressor state that both executors share (and for checkpointing,
	// which the wire path rejects).
	exec     executor
	params   []float64
	wPrev    []float64
	active   []bool
	expelled map[int]int
	run      *metrics.Run
	evalEng  *nn.Engine
	test     *dataset.Dataset
	// baseRound is the nominal-device modeled duration of one local round
	// (K steps with the algorithm's cost profile); per-client durations
	// scale it by the device's speed factor.
	baseRound float64
	partRNG   *rng.RNG

	// Reusable per-round state, sized to the largest cohort the config
	// can dispatch (Config.maxCohort) and sliced per round. shuffle holds
	// the active IDs partial participation samples from (nil under full
	// participation, where the cohort is every active client).
	ids      []int
	include  []int
	updates  []Update
	measured []float64
	shuffle  []int32
	// at holds each dispatched job's modeled dispatch time, parallel to
	// the ids handed to exec.runBatch: a sync or deadline round fills it
	// with the round's start; the async policy records each parked
	// re-dispatch's own time next to its id in parked.
	at     []float64
	server ServerCtx
	// now is the virtual clock (modeled seconds since the run started).
	now float64

	// rec is the open round record: a sync or deadline admission and the
	// async arrival loop count into it, commit adds the loss and uplink,
	// and record completes it, appends it to run and starts the next.
	rec metrics.Round

	// stack is the aggregation-stack wrapper when the config declares one
	// (nil otherwise); the round records read its per-round zeroed/
	// clipped statistics through it.
	stack *stackedAlg

	// Adversary bookkeeping (adversary.go): anyAdv flags a run with at
	// least one corrupt client; cumWeights accumulates each client's
	// reported aggregation weight; lastHonestW/lastCorruptW hold the
	// round's honest-vs-corrupt weight-mass split for the metric record.
	anyAdv       bool
	cumWeights   []float64
	lastHonestW  float64
	lastCorruptW float64

	// Async-policy state (setupAsync/asyncStep). arrivals orders the live
	// flights of pending by modeled finish; parked lists the re-dispatches
	// whose rounds the next flush computes (capacity Config.maxCohort).
	pending  []flight
	arrivals arrivalQueue
	parked   []int
	buffer   []Update
	version  int
	lastAgg  float64

	// Fault-injection and recovery state (fault.go, checkpoint.go). plan
	// is nil for zero-fault configs, which keeps every fault branch off
	// the golden-pinned path. dupFlags marks delivered-twice updates per
	// include position; attempts tracks async per-client consecutive
	// failed dispatch attempts, and failStreak the async arrivals that
	// failed in a row. All are sized at setup so fault-enabled
	// steady-state rounds still allocate nothing.
	plan       *faultPlan
	dupFlags   []bool
	attempts   []int
	failStreak int

	// Checkpoint/restore state: startRound is the first round to execute
	// (non-zero after a restore); ckptBuf is the reusable encode scratch
	// and lastCkpt the retained copy of the newest checkpoint.
	// serverCrashed latches the one-shot servercrash fault; recovered and
	// rollbacks count replayed rounds and divergence rollbacks — they
	// live outside the checkpointed state so restores cannot erase them.
	startRound    int
	serverCrashed bool
	recovered     int
	rollbacks     int
	ckptBuf       bytes.Buffer
	lastCkpt      []byte
	lastCkptRound int

	// interrupt, when non-nil, requests a graceful pause: the round loop
	// checks it at every round boundary and stops with a final checkpoint
	// instead of running to Rounds (ServeOptions.Interrupt).
	interrupt <-chan struct{}
}

// participants collects the round's participating clients in ID order
// into the scheduler's reusable ids buffer, applying the partial-
// participation sampler, builds any client participating for the first
// time, and errors when every client has been expelled. The sampler
// shuffles the active IDs in place with exactly the draws
// SampleWithoutReplacement's Perm makes and keeps the first take, so it
// picks the clients the reference loop picks without allocating.
func (s *scheduler) participants(t int) ([]int, error) {
	var ids []int
	if s.shuffle == nil {
		ids = appendActive(s.ids[:0], s.active)
	} else {
		pool := appendActive(s.shuffle[:0], s.active)
		if len(pool) > 0 {
			take := max(int(s.cfg.ParticipationFraction*float64(len(pool))+0.5), 1)
			rng.ShuffleInto(s.partRNG, pool)
			pool = pool[:take]
			slices.Sort(pool)
		}
		ids = s.ids[:len(pool)]
		for j, id := range pool {
			ids[j] = int(id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("fl: all clients expelled by round %d", t)
	}
	s.fleet.materialize(ids)
	return ids, nil
}

// appendActive appends the IDs of the active clients to dst in ascending
// order.
func appendActive[T int | int32](dst []T, active []bool) []T {
	for i, a := range active {
		if a {
			dst = append(dst, T(i))
		}
	}
	return dst
}

// aggregate runs one server step over updates: snapshot w^t, apply the
// algorithm's aggregation rule, process expulsions, and report whether
// the model diverged (the paper's "×" outcome), which halts the run.
func (s *scheduler) aggregate(t int, updates []Update) (diverged bool) {
	copy(s.wPrev, s.params)
	s.server.Round = t
	s.server.W = s.params
	s.server.WPrev = s.wPrev
	s.server.expelled = s.server.expelled[:0]
	s.server.reported = s.server.reported[:0]
	s.alg.Aggregate(&s.server, updates)
	s.recordWeightMass(updates)
	for _, id := range s.server.expelled {
		if s.active[id] {
			s.active[id] = false
			s.expelled[id] = t
		}
	}
	if !vecmath.AllFinite(s.params) {
		s.run.Diverged = true
		s.run.DivergedRound = t
		return true
	}
	return false
}

// recordWeightMass splits the round's reported aggregation weights into
// honest and corrupt mass and folds them into the per-client cumulative
// weights — the data behind the defense metrics (how much influence the
// rule actually granted attackers). Skipped entirely for adversary-free
// runs (the golden sync trace stays byte-identical) and when the
// aggregation rule reported nothing for this update set.
func (s *scheduler) recordWeightMass(updates []Update) {
	s.lastHonestW, s.lastCorruptW = 0, 0
	if !s.anyAdv || len(s.server.reported) != len(updates) {
		return
	}
	for i, u := range updates {
		w := s.server.reported[i]
		if u.Corrupt {
			s.lastCorruptW += w
		} else {
			s.lastHonestW += w
		}
		s.cumWeights[u.Client] += w
	}
}

// stackStats returns the last aggregation's stage statistics (all zero
// without a stack).
func (s *scheduler) stackStats() (zeroed, clipped int, clipNorm float64) {
	if s.stack == nil {
		return 0, 0, 0
	}
	return s.stack.stackStats()
}

// clearStackStats resets the stage statistics for rounds that never
// aggregated (alongside the honest/corrupt weight reset).
func (s *scheduler) clearStackStats() {
	if s.stack != nil {
		s.stack.clearStackStats()
	}
}

// releaseDeltas returns the round's upload buffers (dense deltas and
// encoded payloads) to the slot-pool ring once the server has consumed
// them.
func (s *scheduler) releaseDeltas(updates []Update) {
	for i := range updates {
		s.exec.release(&updates[i])
	}
}

// uplink totals the round's client→server traffic: the encoded payload
// sizes when a codec is live, the dense 8d cost otherwise. ratio is
// dense-over-encoded — the round's compression factor, 1 for dense
// transport.
func (s *scheduler) uplink(updates []Update) (bytes int64, ratio float64) {
	dense := 8 * int64(len(s.params))
	var enc int64
	for i := range updates {
		if p := updates[i].Payload; p != nil {
			enc += int64(p.Bytes())
		} else {
			enc += dense
		}
	}
	if enc == 0 {
		return 0, 0
	}
	return enc, float64(dense*int64(len(updates))) / float64(enc)
}

// recordAccuracy fills rec.Accuracy per the evaluation cadence.
// Evaluation uses the algorithm's output model: Definition 2 calls z_t
// "the final model output after communication round t", and by Lemma 2
// the z sequence advances by the plain averaged mini-batch gradient
// (z^{t+1} = z^t − ηg·˜∆^t), cancelling the momentum in the w sequence.
// For every other algorithm FinalModel is w itself.
func (s *scheduler) recordAccuracy(t int, rec *metrics.Round) {
	if (t+1)%s.cfg.evalEvery() == 0 || t == s.cfg.Rounds-1 {
		rec.Accuracy = s.evalEng.Accuracy(s.alg.FinalModel(s.params), s.test.X, s.test.Y)
	} else if len(s.run.Rounds) > 0 {
		rec.Accuracy = s.run.Rounds[len(s.run.Rounds)-1].Accuracy
	}
}

// slowestHonest returns the largest measured wall time among training
// participants (the paper measures the slowest client per round;
// fabricating adversaries — freeloaders, sybils — do no work). at is the
// round's dispatch time, which decides whether a windowed fabricator was
// live.
func (s *scheduler) slowestHonest(ids []int, measured []float64, at float64) float64 {
	var slowest float64
	for j, id := range ids {
		if s.fleet.clients[id].fabricatorAt(at) != nil {
			continue
		}
		if measured[j] > slowest {
			slowest = measured[j]
		}
	}
	return slowest
}

// step executes round t under the configured policy — a server step under
// the async policy, a cohort round with the policy's admission otherwise;
// halt reports divergence.
func (s *scheduler) step(t int) (halt bool, err error) {
	switch s.cfg.Policy {
	case PolicyDeadline:
		return s.cohortRound(t, s.deadlineAdmit)
	case PolicyAsync:
		return s.asyncStep(t)
	default:
		return s.cohortRound(t, s.syncAdmit)
	}
}

// wantCheckpoints reports whether the run snapshots state: periodically
// when CheckpointEvery is set, and at minimum once at the start when a
// servercrash fault needs something to restart from.
func (s *scheduler) wantCheckpoints() bool {
	return s.cfg.CheckpointEvery > 0 || (s.plan != nil && s.plan.crashRound >= 0)
}

// runAll drives the configured policy's round loop: the policy's step
// inside the policy-independent recovery machinery — an initial
// checkpoint when checkpointing is armed, periodic checkpoints every
// CheckpointEvery rounds, the one-shot simulated server crash (restore
// the last checkpoint with its rng cursors and replay bit-identically),
// and the divergence guard (roll back to the last checkpoint keeping the
// live cursors — so the replay draws fresh batches — instead of halting,
// up to maxRollbacks times). resumed marks a run restored from a
// checkpoint, whose async in-flight state was rebuilt by restore instead
// of setupAsync's initial dispatch wave.
func (s *scheduler) runAll(resumed bool) error {
	if s.cfg.Policy == PolicyAsync && !resumed {
		if err := s.setupAsync(); err != nil {
			return err
		}
	}
	if s.wantCheckpoints() && s.lastCkpt == nil {
		if err := s.snapshot(s.startRound); err != nil {
			return err
		}
	}
	for t := s.startRound; t < s.cfg.Rounds; {
		if s.interrupt != nil {
			select {
			case <-s.interrupt:
				return s.pause(t)
			default:
			}
		}
		if s.plan != nil && s.plan.crashRound == t && !s.serverCrashed {
			s.serverCrashed = true
			restored, err := s.restoreLast(true)
			if err != nil {
				return err
			}
			if rx, ok := s.exec.(*remoteExec); ok {
				// The restarted server re-dispatches from the restored
				// round; workers must be rewound to match (reset plus
				// full history replay, serve.go).
				if err := rx.resyncWorkers(); err != nil {
					return err
				}
			}
			s.recovered += t - restored
			t = restored
			continue
		}
		halt, err := s.step(t)
		if err != nil {
			return err
		}
		if halt {
			if s.lastCkpt != nil && s.rollbacks < maxRollbacks && s.canRollback() {
				restored, err := s.restoreLast(false)
				if err != nil {
					return err
				}
				s.rollbacks++
				s.run.Diverged = false
				s.run.DivergedRound = 0
				t = restored
				continue
			}
			s.run.HaltRound = t
			s.run.HaltReason = "diverged: non-finite parameters"
			break
		}
		t++
		if s.cfg.CheckpointEvery > 0 && t < s.cfg.Rounds && t%s.cfg.CheckpointEvery == 0 {
			if err := s.snapshot(t); err != nil {
				return err
			}
		}
	}
	s.run.RecoveredRounds = s.recovered
	s.run.Rollbacks = s.rollbacks
	return nil
}

// pause ends the run early at a round boundary after an interrupt
// (SIGINT on cmd/flserver): take a final checkpoint when checkpointing
// is armed — the blob ServeResume restarts from — mark the result, and
// flag the executor so its Bye tells workers the server is pausing, not
// done (they surface ErrServerPaused and re-attach to the restarted
// server).
func (s *scheduler) pause(t int) error {
	if s.wantCheckpoints() && t != s.lastCkptRound {
		if err := s.snapshot(t); err != nil {
			return err
		}
	}
	s.run.HaltRound = t
	s.run.HaltReason = "interrupted"
	s.run.RecoveredRounds = s.recovered
	s.run.Rollbacks = s.rollbacks
	if rx, ok := s.exec.(*remoteExec); ok {
		rx.setPausing()
	}
	return nil
}

// canRollback reports whether the divergence rollback (restore keeping
// live rng cursors so the replay draws fresh batches) is available. The
// wire path cannot use it: worker rng streams live in other processes
// and the rollback deliberately does NOT rewind cursors, so there is no
// consistent worker state to rebuild — a diverged wire run halts with
// its checkpoint on disk instead.
func (s *scheduler) canRollback() bool {
	_, remote := s.exec.(*remoteExec)
	return !remote
}

// drainRecoveryInto folds the executor's failover counters since the
// last round into the round record (always zero for in-process runs).
func (s *scheduler) drainRecoveryInto(rec *metrics.Round) {
	if rx, ok := s.exec.(*remoteExec); ok {
		rec.ReassignedDispatches, rec.WorkerReconnects = rx.drainRecovery()
	}
}

// compactLost drops updates whose worker connection was lost with
// failover exhausted (serve.go marks their ring entries lost): the
// entries are released and the kept updates left-compacted in place
// alongside their ids, measured times, and dup flags. The survivors'
// order is unchanged, so the aggregation stays deterministic given
// which workers were lost.
func (s *scheduler) compactLost(include []int, updates []Update, measured []float64, dup []bool) (kept, lost int) {
	for j := range updates {
		if updates[j].ring != nil && updates[j].ring.lost {
			s.exec.release(&updates[j])
			lost++
			continue
		}
		if lost > 0 {
			include[kept] = include[j]
			updates[kept] = updates[j]
			measured[kept] = measured[j]
			if dup != nil {
				dup[kept] = dup[j]
			}
		}
		kept++
	}
	return kept, lost
}

// cohortRound executes one sync or deadline round; halt reports
// divergence. admit picks the clients that train — and with them the
// round's modeled duration and straggler and fault counts — and every
// admitted client is dispatched at the round's start. Updates lost with
// their worker are dropped, degrading the round instead of aborting it;
// the rest are committed and the round recorded.
func (s *scheduler) cohortRound(t int, admit func(ids []int, faulty bool) (include []int, dup []bool)) (halt bool, err error) {
	ids, err := s.participants(t)
	if err != nil {
		return false, err
	}
	faulty := s.plan != nil && s.plan.anyDispatch
	include, dup := admit(ids, faulty)
	updates := s.updates[:len(include)]
	measured := s.measured[:len(include)]
	lost := 0
	if len(include) > 0 {
		if err := s.runCohort(t, include, updates, measured); err != nil {
			return false, err
		}
		var kept int
		kept, lost = s.compactLost(include, updates, measured, dup)
		include, updates, measured = include[:kept], updates[:kept], measured[:kept]
		if dup != nil {
			dup = dup[:kept]
		}
		s.rec.DroppedUpdates += lost
	}
	s.rec.Degraded = (faulty || lost > 0) && s.degraded(len(include), len(ids))
	s.rec.SlowestMeasuredSec = s.slowestHonest(include, measured, s.now)
	if s.commit(t, updates, dup) {
		return true, nil
	}
	s.now += s.rec.SlowestModeledSec
	s.record(t)
	return false, nil
}

// syncAdmit admits a synchronous round: the paper's lock-step loop, where
// every participant trains and the server waits for all of them —
// including any wait for an off-window device to come back, which is
// where the synchronous policy pays for heterogeneity in modeled wall
// time. The wait covers every dispatched honest client, delivered or not,
// so it is fixed here, before any update can be lost. With a uniform
// fleet it reproduces the pre-scheduler engine bit-identically
// (golden-tested: for an always-available device finishRel collapses to
// Seconds(baseRound) exactly). Under a fault plan only the delivering
// clients train, and the wait covers the losers' full timeout chains.
func (s *scheduler) syncAdmit(ids []int, faulty bool) (include []int, dup []bool) {
	include, dup = s.include[:0], s.dupFlags[:0]
	for _, id := range ids {
		out := s.outcome(id, faulty)
		s.rec.Retries += out.retries
		if s.fleet.clients[id].fabricatorAt(s.now) == nil {
			s.rec.SlowestModeledSec = max(s.rec.SlowestModeledSec, out.rel)
		}
		if !out.delivered {
			s.rec.DroppedUpdates++
			continue
		}
		include, dup = s.enlist(include, dup, id, out.dup)
	}
	return include, dup
}

// deadlineAdmit admits a deadline round: round-based partial aggregation.
// Participants whose modeled finish time exceeds the round deadline are
// dropped before any work is dispatched (the server will not wait, so the
// straggler's round is abandoned) and retry from the next round's fresh
// model. When every participant would miss the deadline the server admits
// the earliest finisher so the round always aggregates at least one
// update. Under a fault plan a dispatch whose retry budget is exhausted
// counts as a dropped *update* (the client never delivered), while a
// delivered update past the deadline counts as a dropped *client* (the
// classic straggler cut).
func (s *scheduler) deadlineAdmit(ids []int, faulty bool) (include []int, dup []bool) {
	include, dup = s.include[:0], s.dupFlags[:0]
	earliest, first := -1, dispatchOutcome{rel: math.Inf(1)}
	for _, id := range ids {
		out := s.outcome(id, faulty)
		s.rec.Retries += out.retries
		switch {
		case !out.delivered:
			s.rec.DroppedUpdates++
		case out.rel <= s.cfg.RoundDeadlineSec:
			include, dup = s.enlist(include, dup, id, out.dup)
			s.rec.SlowestModeledSec = max(s.rec.SlowestModeledSec, out.rel)
		default:
			s.rec.DroppedClients++
			if out.rel < first.rel {
				earliest, first = id, out
			}
		}
	}
	if len(include) == 0 && earliest >= 0 {
		include, dup = s.enlist(include, dup, earliest, first.dup)
		s.rec.DroppedClients--
		s.rec.SlowestModeledSec = first.rel
	} else if s.rec.DroppedClients > 0 || len(include) == 0 {
		// Stragglers were cut off (or every update was lost), so the
		// server waited out the full deadline before closing the round.
		s.rec.SlowestModeledSec = s.cfg.RoundDeadlineSec
	}
	return include, dup
}

// outcome is client id's dispatch at the round's start: resolved under
// the fault plan when one is live, else delivered at its fault-free
// finish.
func (s *scheduler) outcome(id int, faulty bool) dispatchOutcome {
	if faulty {
		return s.resolveDispatch(id, s.now)
	}
	return dispatchOutcome{delivered: true, rel: s.finishRel(id, s.now)}
}

// enlist appends client id to the admitted cohort, with its dup flag when
// the round tracks them (only under a fault plan).
func (s *scheduler) enlist(include []int, dup []bool, id int, isDup bool) ([]int, []bool) {
	if dup != nil {
		dup = append(dup, isDup)
	}
	if isDup {
		s.rec.DupUpdates++
	}
	return append(include, id), dup
}

// runCohort runs a sync or deadline round's local updates — every job
// dispatched at the round's start — and waits for their results.
func (s *scheduler) runCohort(t int, include []int, updates []Update, measured []float64) error {
	at := s.at[:len(include)]
	for j := range at {
		at[j] = s.now
	}
	if err := s.exec.runBatch(&s.cfg, s.alg, s.fleet.clients, include, t, at, s.params, s.wPrev, updates, measured); err != nil {
		return err
	}
	return s.exec.settle(updates, measured)
}

// finishRel returns client id's modeled finish time relative to a round
// starting at now: wait for the device's next availability window, then
// compute. The wait is formed before adding the compute duration so an
// always-available device yields exactly finishDur (no now+dur−now
// round trip), which the sync golden test depends on.
func (s *scheduler) finishRel(id int, now float64) float64 {
	wait := s.device(id).Availability.NextAvailable(now) - now
	return wait + s.finishDur(id)
}

// commit applies a round's delivered updates (an async step's buffer):
// aggregate them — or, when every update was lost, leave the model as it
// is and clear the round's weight split and stack statistics — then add
// the training loss and the uplink, duplicate deliveries flagged in dup
// included, to the open record and return the upload buffers to the
// ring. halt reports divergence.
func (s *scheduler) commit(t int, updates []Update, dup []bool) (halt bool) {
	if len(updates) > 0 {
		halt = s.aggregate(t, updates)
	} else {
		s.lastHonestW, s.lastCorruptW = 0, 0
		s.clearStackStats()
	}
	s.rec.TrainLoss = meanLoss(updates)
	up, ratio := s.uplink(updates)
	s.rec.UplinkBytes += up + s.dupBytes(updates, dup)
	s.rec.CompressionRatio = ratio
	s.releaseDeltas(updates)
	return halt
}

// record completes round t's open record and appends it: the mean α, the
// honest/corrupt weight split and the stack statistics as they stand at
// the call, then the failover counters and the accuracy. The next round
// starts a fresh record.
func (s *scheduler) record(t int) {
	rec := &s.rec
	rec.Index = t
	rec.MeanAlpha = s.alg.MeanAlpha()
	rec.HonestWeight, rec.CorruptWeight = s.lastHonestW, s.lastCorruptW
	rec.ZeroedUpdates, rec.ClippedUpdates, rec.ClipNorm = s.stackStats()
	s.drainRecoveryInto(rec)
	s.recordAccuracy(t, rec)
	s.run.Append(*rec)
	*rec = metrics.Round{}
}

// flight is one client's in-progress local round under the async policy:
// the update it will upload (computed at the latest by the next flush —
// see the scheduler doc comment), the server version it trained from,
// and its modeled completion time. Flights live in the scheduler's fixed
// pending table; live distinguishes in-flight entries from consumed
// ones, parked a flight whose update the next flush computes.
type flight struct {
	update   Update
	measured float64
	finish   float64
	version  int
	live     bool
	parked   bool
	// Fault state (fault.go): failed marks a crashed/lost/timed-out
	// dispatch — finish is then the server's timeout expiry, the computed
	// update is discarded (ring entry returned) and the client retried or
	// rejoined; dup marks a delivery the uplink duplicated; attempt is
	// the dispatch's 0-based position in its retry chain.
	failed  bool
	dup     bool
	attempt int
}

// arrivalQueue is the async policy's event queue: a binary min-heap of
// the live flights' client IDs, ordered by (finish, id) with the keys
// read from the pending table. The next arrival costs O(log n) instead
// of a scan of the fleet, and ties go to the lowest ID — exactly the
// flight a linear scan with a strict < picks. A flight is queued exactly
// while it is live: dispatch pushes it, asyncStep pops it, and restore
// rebuilds the queue from the restored table.
type arrivalQueue []int32

// arrivesBefore orders flights a and b of pending by (finish, id).
func arrivesBefore(pending []flight, a, b int32) bool {
	fa, fb := pending[a].finish, pending[b].finish
	return fa < fb || (fa == fb && a < b)
}

// push queues client id, whose flight is already in pending.
func (q *arrivalQueue) push(pending []flight, id int) {
	h := append(*q, int32(id))
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !arrivesBefore(pending, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the next arrival's client ID, or -1 when
// nothing is in flight.
func (q *arrivalQueue) pop(pending []flight) int {
	h := *q
	if len(h) == 0 {
		return -1
	}
	next := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	h.down(pending, 0)
	*q = h
	return int(next)
}

// rebuild queues every live flight of pending.
func (q *arrivalQueue) rebuild(pending []flight) {
	h := (*q)[:0]
	for id := range pending {
		if pending[id].live {
			h = append(h, int32(id))
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(pending, i)
	}
	*q = h
}

// down restores the heap order below position i.
func (h arrivalQueue) down(pending []flight, i int) {
	for {
		first := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && arrivesBefore(pending, h[c], h[first]) {
				first = c
			}
		}
		if first == i {
			return
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// dispatch starts a local round for client id at virtual time at and
// parks it. Everything the schedule depends on is fixed here, on the
// scheduler goroutine, in dispatch order: the flight's modeled finish,
// the server version it trains from, and its fault outcome. The update
// itself is computed by the next flush, against inputs nothing writes in
// between: the global model and algorithm state only change in
// aggregate, which flushes first, and a client's own record only changes
// in its own round. A full park list flushes at once.
func (s *scheduler) dispatch(id int, at float64) error {
	f := flight{
		finish:  s.device(id).Availability.NextAvailable(at) + s.finishDur(id),
		version: s.version,
		live:    true,
		parked:  true,
	}
	if s.plan != nil && s.plan.anyDispatch {
		out := s.resolveAsyncDispatch(id, at)
		f.finish = out.finish
		f.failed = out.failed
		f.dup = out.dup
		f.attempt = s.attempts[id]
	}
	s.pending[id] = f
	s.arrivals.push(s.pending, id)
	s.at[len(s.parked)] = at
	s.parked = append(s.parked, id)
	if len(s.parked) == cap(s.parked) {
		return s.flush()
	}
	return nil
}

// flush computes every parked round as one executor batch — P slots at
// a time in process, one Dispatch frame per worker over the wire — and
// hands each update to its flight. The upload delta is a ring buffer
// owned by the flight until the server consumes or discards it. Under
// remote execution the results are still in flight when flush returns —
// asyncStep settles each flight before reading it — which is what
// overlaps worker compute with the server's aggregation and evaluation.
// Every parked round shares s.version: the version only moves in
// asyncStep after the pre-aggregation flush.
func (s *scheduler) flush() error {
	k := len(s.parked)
	if k == 0 {
		return nil
	}
	updates, measured := s.updates[:k], s.measured[:k]
	if err := s.exec.runBatch(&s.cfg, s.alg, s.fleet.clients, s.parked, s.version, s.at[:k], s.params, s.wPrev, updates, measured); err != nil {
		return err
	}
	for j, id := range s.parked {
		f := &s.pending[id]
		f.update, f.measured, f.parked = updates[j], measured[j], false
	}
	s.parked = s.parked[:0]
	return nil
}

// initAsync sizes the async state: the fleet-wide flight table, and the
// arrival queue, park list and buffer, which hold at most one flight per
// dispatched client.
func (s *scheduler) initAsync() {
	n := len(s.active)
	cohort := s.cfg.maxCohort(n)
	s.pending = make([]flight, n)
	s.arrivals = make(arrivalQueue, 0, cohort)
	s.parked = make([]int, 0, cohort)
	s.buffer = make([]Update, 0, s.cfg.asyncBuffer())
}

// setupAsync initializes the async state and dispatches the first wave.
func (s *scheduler) setupAsync() error {
	s.initAsync()
	ids, err := s.participants(0)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := s.dispatch(id, 0); err != nil {
			return err
		}
	}
	return s.flush()
}

// asyncStep executes one server step of FedBuff-style buffered
// asynchronous aggregation: every client trains continuously; the server
// steps once asyncBuffer updates have arrived, tagging each with its
// staleness (server versions elapsed since the client downloaded its base
// model). A client restarts from the then-current model immediately after
// uploading; the update that triggers a server step restarts after it, on
// the new model. Cfg.Rounds counts server steps; halt reports divergence.
//
// The step drains arrivals in virtual-time order (ties broken by client
// ID) until the buffer triggers. Re-dispatches park and are computed in
// batches, flushed when an arrival needs a parked update, before
// aggregation, when the park list fills, and at the end of the step — so
// between steps nothing is parked, and snapshots, restores and rollbacks
// see no batching at all.
func (s *scheduler) asyncStep(t int) (halt bool, err error) {
	bufK := s.cfg.asyncBuffer()
	trigger := -1
	for len(s.buffer) < bufK {
		id := s.arrivals.pop(s.pending)
		if id == -1 {
			return false, fmt.Errorf("fl: no client updates in flight at async step %d (all clients expelled)", t)
		}
		f := &s.pending[id]
		if f.parked {
			if err := s.flush(); err != nil {
				return false, err
			}
		}
		f.live = false
		s.now = f.finish
		// Remote execution defers results past dispatch: block here, at the
		// modeled finish event, until this flight's reply has landed (no-op
		// in process). Discarded flights settle too — their ring entries
		// must not be recycled while an in-flight reply could still write
		// into them.
		if err := s.exec.settleOne(&f.update, &f.measured); err != nil {
			return false, err
		}
		if f.update.ring != nil && f.update.ring.lost {
			// A worker died with this dispatch in flight and nobody could
			// adopt it. The async pipeline cannot drop it (the buffer
			// trigger accounting would diverge from the modeled clock), so
			// this is fatal — sync and deadline runs degrade instead.
			s.exec.release(&f.update)
			return false, fmt.Errorf("fl: worker lost with client %d in flight (the async policy cannot drop in-flight updates; use sync or deadline for degraded operation)", id)
		}
		if !s.active[id] {
			// Expelled while in flight: upload discarded, ring entry recycled.
			s.exec.release(&f.update)
			continue
		}
		if f.failed {
			// Crash, uplink loss, or timeout: the computed update never
			// arrives — the delta-ring entry returns to the pool and the
			// client is re-dispatched after its deterministic backoff
			// (recomputing against the then-current model), or rejoins
			// fresh once its retry budget is exhausted.
			s.exec.release(&f.update)
			s.failStreak++
			if s.failStreak > (s.plan.retries+2)*max(64, 8*len(s.active)) {
				return false, fmt.Errorf("fl: faults starved the async buffer at step %d (%d consecutive failed dispatches)", t, s.failStreak)
			}
			attempt := f.attempt
			if attempt < s.plan.retries {
				s.attempts[id] = attempt + 1
				s.rec.Retries++
				err = s.dispatch(id, s.now+s.plan.backoff(attempt, s.plan.perClient[id].r))
			} else {
				s.attempts[id] = 0
				s.rec.DroppedUpdates++
				err = s.dispatch(id, s.now)
			}
			if err != nil {
				return false, err
			}
			continue
		}
		s.failStreak = 0
		if s.attempts != nil {
			s.attempts[id] = 0
		}
		if f.dup {
			// Duplicated delivery: the server is idempotent — count it,
			// charge its bytes, aggregate the update once.
			s.rec.DupUpdates++
			s.rec.UplinkBytes += s.payloadBytes(&f.update)
		}
		f.update.Staleness = s.version - f.version
		s.buffer = append(s.buffer, f.update)
		s.rec.SlowestMeasuredSec = max(s.rec.SlowestMeasuredSec, f.measured)
		if len(s.buffer) < bufK {
			if err := s.dispatch(id, s.now); err != nil {
				return false, err
			}
		} else {
			trigger = id
		}
	}

	var staleSum int
	for _, u := range s.buffer {
		staleSum += u.Staleness
		s.rec.MaxStaleness = max(s.rec.MaxStaleness, u.Staleness)
	}
	s.rec.MeanStaleness = float64(staleSum) / float64(len(s.buffer))

	// The parked rounds read the model and algorithm state this step
	// replaces (Scaffold's Aggregate also reads the c_i their EndLocal
	// writes), so they run first.
	if err := s.flush(); err != nil {
		return false, err
	}
	if s.commit(t, s.buffer, nil) {
		return true, nil
	}
	s.version++
	if trigger >= 0 && s.active[trigger] {
		if err := s.dispatch(trigger, s.now); err != nil {
			return false, err
		}
	}
	if err := s.flush(); err != nil {
		return false, err
	}
	s.rec.SlowestModeledSec = s.now - s.lastAgg
	s.record(t)
	s.lastAgg = s.now
	s.buffer = s.buffer[:0]
	return false, nil
}

// finishDur returns client id's modeled compute duration. Freeloaders
// claim the same duration as honest work: they masquerade as honest
// clients (Section IV-A), so their uploads arrive on an honest-looking
// schedule — replying instantly would both unmask them and let them
// flood the async buffer at a frozen virtual clock. (Their real measured
// time stays near zero, and the sync policy's slowest-client metrics
// exclude them as before.)
func (s *scheduler) finishDur(id int) float64 {
	return s.device(id).Seconds(s.baseRound)
}

// device returns client id's device profile: the configured fleet's
// entry, or the nominal always-available device when the config left the
// fleet empty (uniform, so no per-client profile table is built).
func (s *scheduler) device(id int) simclock.DeviceProfile {
	if s.cfg.Devices == nil {
		return simclock.DeviceProfile{SpeedFactor: 1}
	}
	return s.cfg.Devices[id]
}
