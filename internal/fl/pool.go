package fl

import (
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/nn"
)

// slot bundles the training resources one in-flight local round needs: an
// execution engine (activation/gradient arenas sized for the batch) plus
// the w0/w/grad/scratch parameter buffers and the mini-batch staging
// buffers. Slots carry no client identity — every buffer is fully
// overwritten by each local round, so which slot serves which client is
// invisible in the results (the P=1-vs-P=8 bit-identity tests pin this).
type slot struct {
	eng                  *nn.Engine // float64 engine; nil under DType "f32"
	w0, w, grad, scratch []float64
	batchX               []float64
	batchY               []int
	// The float32 compute path (Config.DType "f32", DESIGN.md §10): the
	// fp32 engine replaces the fp64 one — halving the activation arenas,
	// the dominant slot memory — and the four fp32 twins bridge the hot
	// loop. w0/w/grad/scratch stay allocated as the float64 views every
	// algorithm hook reads; localUpdate32 keeps the two precisions in
	// sync at the hook boundary.
	eng32    *nn.Engine32
	w32      []float32
	grad32   []float32
	corr32   []float32 // narrowed fused-correction vector
	batchX32 []float32
	// ctx is the slot's reusable StepCtx, so dispatching a local round
	// does not allocate (the interface call to GradAdjust would otherwise
	// force a fresh StepCtx to escape every round).
	ctx StepCtx
}

// roundTask is the work description shared by every job of one
// runBatch call. It lives inside the pool so submitting a round
// writes plain struct fields instead of allocating a closure per round.
type roundTask struct {
	cfg        *Config
	alg        Algorithm
	pool       *slotPool
	clients    []*client
	ids        []int
	round      int
	global     []float64
	prevGlobal []float64
	updates    []Update
	measured   []float64
	// at holds each job's modeled dispatch time, which gates window-
	// activated corruption (adversary.go). A batch of async re-dispatches
	// carries one time per job; sync and deadline rounds share one.
	at []float64
}

// run executes job j (the j-th client of the round) on the worker's slot.
// Corruption and compression hooks live here, on the checkout path: a
// live fabricator replaces training outright; otherwise the client trains
// (from its corrupted shard while a data-level window is live) and the
// update-level injector chain mutates the delta in place before upload.
// With a codec live the outgoing delta — fabricated ones included; lossy
// transport applies to every upload — is then error-feedback encoded into
// the ring buffer's payload, and the dense delta is replaced by the
// decoded view so every aggregation rule sees exactly what arrived on the
// wire.
func (t *roundTask) run(j int, sl *slot) {
	c := t.clients[t.ids[j]]
	at := t.at[j]
	start := time.Now()
	if fab := c.fabricatorAt(at); fab != nil {
		c.fabricate(fab, t.cfg, t.updates[j].Delta, t.round, t.global, t.prevGlobal)
	} else {
		if t.cfg.isF32() {
			localUpdate32(t.cfg, t.alg, c, sl, t.updates[j].Delta, t.round, t.global, c.samplerAt(at))
		} else {
			localUpdate(t.cfg, t.alg, c, sl, t.updates[j].Delta, t.round, t.global, c.samplerAt(at))
		}
		c.injectDelta(t.cfg, t.updates[j].Delta, t.round, at, t.global, t.prevGlobal)
	}
	if comp := t.pool.comp; comp != nil {
		comp.compress(&t.updates[j], c, sl)
	}
	t.measured[j] = time.Since(start).Seconds()
	t.updates[j].TrainLoss = c.lastLoss
}

// upload is one delta-ring entry: the dense delta buffer plus a sized
// encode buffer (the codec payload) that rides along when a codec is
// live, so encoding an upload in steady state allocates nothing.
//
// loss and measured are the remote-execution backfill fields: under
// fl.Serve, Update structs are copied into the scheduler's flight table
// at dispatch time, before the worker's reply lands, so the reply's
// train loss and measured wall time are written here — the one location
// both the flight copy and the ingest goroutine can reach — and copied
// out by the executor's settle step. The in-process executor never
// touches them.
type upload struct {
	delta    []float64
	pay      compress.Payload
	loss     float64
	measured float64
	// lost marks an in-flight dispatch whose worker died with failover
	// exhausted (no survivor to adopt it, no reconnect within grace):
	// settle stops waiting for it and the scheduler feeds it through the
	// quorum/degradation path instead of aborting the run.
	lost bool
	// via is the connection that delivered (or, while in flight, will
	// deliver) this upload — the reassignment-stable handle backpressure
	// accounting needs, since the owner table may have moved the client
	// to another worker after dispatch.
	via *serveConn
}

// executor runs dispatched local rounds and hands their results back to
// the scheduler. The in-process implementation is the slot pool, which
// computes updates synchronously inside runBatch; the remote
// implementation (serve.go) serializes dispatch frames to socket-
// connected workers inside runBatch and defers the results, which is
// what lets round r+1's dispatch overlap round r's aggregation. The
// seam's contract: runBatch fills updates with ring-backed buffers that
// MAY still be empty; no field of an update — Delta, Payload, TrainLoss
// — nor its measured time may be read until settle (whole batch) or
// settleOne (one update) has returned for it, and every settled update
// must eventually be released.
type executor interface {
	// runBatch runs one local round per client of ids from the global
	// model of server round (or async version) round; at[j] is job j's
	// modeled dispatch time.
	runBatch(cfg *Config, alg Algorithm, clients []*client, ids []int, round int, at []float64, global, prevGlobal []float64, updates []Update, measured []float64) error
	// settle blocks until every update of the round has its results in
	// place (position j of measured matches updates[j]).
	settle(updates []Update, measured []float64) error
	// settleOne blocks until one update's results are in place; measured
	// may be nil when the caller only needs the update itself.
	settleOne(u *Update, measured *float64) error
	release(u *Update)
	close()
}

// compressor is the slot pool's uplink codec (DESIGN.md §7): the shared
// stateless codec, applied with each client's own mutable pieces — the
// error-feedback residual, allocated lazily on first participation like
// Scaffold's control variates (nil = zero vector), and the deterministic
// quantization stream, both kept in the client record. A client is in
// flight at most once at any instant under every policy, so workers
// touch disjoint residuals and streams without locking.
type compressor struct {
	codec compress.Codec
	f32   bool // residuals ride the fp32 slot dtype (DType "f32")
}

// compress runs the error-feedback encode step for one upload on the
// checkout path: u.Delta is folded with the client's residual, encoded
// into the ring buffer's payload, and replaced by the decoded
// server-visible update; the residual keeps the mass the codec dropped
// for the client's next round (compress.EncodeEF).
func (cp *compressor) compress(u *Update, c *client, sl *slot) {
	if cp.f32 {
		// fp32 mode: the residual rides the slot dtype — it carries
		// client-local dropped mass, the same precision class as the
		// client's training state — while the encode/decode arithmetic
		// stays float64 on the widened delta (compress.EncodeEF32).
		if c.resid32 == nil {
			c.resid32 = make([]float32, len(u.Delta))
		}
		compress.EncodeEF32(cp.codec, u.Payload, u.Delta, c.resid32, &c.codecRNG, sl.scratch)
		return
	}
	if c.resid == nil {
		c.resid = make([]float64, len(u.Delta))
	}
	compress.EncodeEF(cp.codec, u.Payload, u.Delta, c.resid, &c.codecRNG, sl.scratch)
}

// slotPool decouples per-client identity from per-client training
// resources. Exactly P = min(Parallelism, clients) slots exist, each
// pinned to one long-lived worker goroutine, so a run's training memory
// is O(P·d) for the heavy state instead of O(n·d): a thousand-client
// fleet no longer owns a thousand engines (DESIGN.md §5).
//
// The pool also owns the delta ring: uploads (Update.Delta and the
// encoded Update.Payload) must outlive the slot that produced them —
// until the server consumes them at aggregation — so they are checked
// out of a free list sized by the steady-state in-flight count and
// returned by the scheduler once aggregated (or discarded). After the
// first round the ring is warm and checkout allocates nothing.
type slotPool struct {
	jobs chan int
	wg   sync.WaitGroup
	task roundTask
	// comp is the uplink codec state, nil for dense transport (the
	// entire compression path is skipped, bit-identical to the
	// pre-codec engine).
	comp *compressor

	// at is runRound's per-job dispatch-time buffer, grown to its
	// largest batch.
	at []float64

	mu        sync.Mutex
	free      []*upload // delta ring free list
	numParams int
	slots     int
}

// newSlotPool creates the pool for a fleet of n clients and starts its
// worker goroutines; the job queue holds the largest cohort the config
// can dispatch. Close must be called when the run ends to stop them.
func newSlotPool(net *nn.Network, cfg Config, n int) *slotPool {
	workers := min(cfg.parallelism(), n)
	p := &slotPool{
		jobs:      make(chan int, cfg.maxCohort(n)),
		numParams: net.NumParams(),
		slots:     workers,
	}
	inSize := net.InShape().Size()
	for w := 0; w < workers; w++ {
		sl := &slot{
			w0:      make([]float64, p.numParams),
			w:       make([]float64, p.numParams),
			grad:    make([]float64, p.numParams),
			scratch: make([]float64, p.numParams),
			batchX:  make([]float64, cfg.BatchSize*inSize),
			batchY:  make([]int, cfg.BatchSize),
		}
		if cfg.isF32() {
			sl.eng32 = nn.NewEngine32(net, cfg.BatchSize)
			sl.w32 = make([]float32, p.numParams)
			sl.grad32 = make([]float32, p.numParams)
			sl.corr32 = make([]float32, p.numParams)
			sl.batchX32 = make([]float32, cfg.BatchSize*inSize)
		} else {
			sl.eng = nn.NewEngine(net, cfg.BatchSize)
		}
		go p.worker(sl)
	}
	return p
}

// worker drains jobs onto its pinned slot until the pool closes.
func (p *slotPool) worker(sl *slot) {
	for j := range p.jobs {
		p.task.run(j, sl)
		p.wg.Done()
	}
}

// close stops the worker goroutines. The pool must be idle. A ring-only
// pool (newRingPool) has no workers to stop.
func (p *slotPool) close() {
	if p.jobs != nil {
		close(p.jobs)
	}
}

// settle implements executor: runBatch already computed everything.
func (p *slotPool) settle([]Update, []float64) error { return nil }

// settleOne implements executor: runBatch already computed everything.
func (p *slotPool) settleOne(*Update, *float64) error { return nil }

// newRingPool creates a pool that owns only the delta ring — no slots,
// no worker goroutines, no engines. The remote executor (serve.go) uses
// it for the server side of a wire run, where local training never
// happens: ring entries hold the decoded uploads workers send back.
func newRingPool(numParams int) *slotPool {
	return &slotPool{numParams: numParams}
}

// runRound is runBatch with every job dispatched at modeled time now —
// the wire worker's batches, whose dispatch time gates nothing (the wire
// path serves no adversaries).
func (p *slotPool) runRound(cfg *Config, alg Algorithm, clients []*client, ids []int, round int, now float64, global, prevGlobal []float64, updates []Update, measured []float64) error {
	if cap(p.at) < len(ids) {
		p.at = make([]float64, len(ids))
	}
	at := p.at[:len(ids)]
	for j := range at {
		at[j] = now
	}
	return p.runBatch(cfg, alg, clients, ids, round, at, global, prevGlobal, updates, measured)
}

// runBatch executes one local round for each of the given client IDs on
// the worker pool, P at a time, checking a delta buffer out of the ring
// for each update and filling updates/measured slot-by-slot (position j
// matches ids[j] and at[j]). It returns once every client's update is
// written; the error is always nil (the executor seam's remote
// implementation can fail).
func (p *slotPool) runBatch(cfg *Config, alg Algorithm, clients []*client, ids []int, round int, at []float64, global, prevGlobal []float64, updates []Update, measured []float64) error {
	for j, id := range ids {
		u := p.getUpload()
		updates[j] = Update{
			Client:     id,
			Delta:      u.delta,
			NumSamples: clients[id].data.Len(),
			Corrupt:    clients[id].corrupt(),
			ring:       u,
		}
		if p.comp != nil {
			updates[j].Payload = &u.pay
		}
	}
	p.task = roundTask{
		cfg:        cfg,
		alg:        alg,
		pool:       p,
		clients:    clients,
		ids:        ids,
		round:      round,
		global:     global,
		prevGlobal: prevGlobal,
		updates:    updates,
		measured:   measured,
		at:         at,
	}
	p.wg.Add(len(ids))
	for j := range ids {
		p.jobs <- j
	}
	p.wg.Wait()
	return nil
}

// getUpload checks a ring entry (delta buffer + sized encode buffer) out
// of the ring, allocating only when the free list is empty (cold start
// or a new in-flight high-water mark).
func (p *slotPool) getUpload() *upload {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		u.lost, u.via = false, nil
		return u
	}
	p.mu.Unlock()
	u := &upload{delta: make([]float64, p.numParams)}
	if p.comp != nil {
		p.comp.codec.Grow(&u.pay, p.numParams)
	}
	return u
}

// release returns an update's ring entry and clears its borrowed views.
// The caller must not retain Delta or Payload past this call. Updates
// not built by runBatch (tests constructing them by hand) carry no ring
// entry and are left untouched.
func (p *slotPool) release(u *Update) {
	if u.ring == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, u.ring)
	p.mu.Unlock()
	u.ring, u.Delta, u.Payload = nil, nil, nil
}
