package fl

import (
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/wire"
)

// ServeOptions configures the socket-backed server side of a wire run.
type ServeOptions struct {
	// Workers is the number of worker processes that will connect. Each
	// worker w initially owns the contiguous client range
	// [w·n/W, (w+1)·n/W); failover may move clients between workers.
	Workers int
	// IntakeBound caps, per connection, the updates that have arrived but
	// not yet been consumed by the scheduler before the server sends a
	// Hold frame (explicit backpressure; a Resume follows once the
	// scheduler drains the backlog). 0 means 256.
	IntakeBound int
	// HeartbeatSec is the liveness probe cadence: the server Pings every
	// live connection at this interval and severs one that has been
	// silent for Config.FaultTimeoutFactor (default 3) heartbeats,
	// routing it through failover instead of hanging on a read forever.
	// 0 means 5 seconds; negative disables supervision.
	HeartbeatSec float64
	// FailoverGraceSec is how long failover waits for a dead worker's
	// index to re-dial (a Hello with a positive attach counter) before
	// falling back to reassignment or loss; 0 admits only a reconnect
	// that is already parked.
	FailoverGraceSec float64
	// DisableReassign pins every client to its original worker index:
	// when that worker dies and no reconnect arrives within the grace
	// period, its in-flight dispatches are marked lost — the round
	// commits Degraded through the quorum path — until it re-attaches.
	DisableReassign bool
	// DisableFailover restores the strict pre-failover behavior: any
	// worker connection error aborts the run.
	DisableFailover bool
	// Interrupt, when non-nil, stops the run gracefully at the next round
	// boundary after the channel closes: a final checkpoint is taken when
	// checkpointing is armed, the result carries HaltReason
	// "interrupted", and workers receive a pausing Bye (ErrServerPaused)
	// telling them to re-attach once the server restarts (ServeResume).
	Interrupt <-chan struct{}
}

// serveObserve is a test hook: when set, Serve hands it the live remote
// executor so backpressure tests can read the Hold count.
var serveObserve func(*remoteExec)

func (o ServeOptions) intakeBound() int {
	if o.IntakeBound > 0 {
		return o.IntakeBound
	}
	return 256
}

func (o ServeOptions) heartbeat() float64 {
	if o.HeartbeatSec < 0 {
		return 0
	}
	if o.HeartbeatSec == 0 {
		return 5
	}
	return o.HeartbeatSec
}

func (o ServeOptions) grace() float64 {
	if o.FailoverGraceSec > 0 {
		return o.FailoverGraceSec
	}
	return 0
}

// Serve runs a federated training run with local computation executed by
// socket-connected worker processes (cmd/flserver) instead of in-process
// goroutines. It accepts exactly opt.Workers connections from ln, checks
// each worker's config fingerprint, and then drives the ordinary
// event-driven scheduler with a remote executor: dispatches serialize
// the global model to the owning worker, replies stream back through a
// bounded per-connection intake with Hold/Resume backpressure, and under
// the async policy the next dispatch overlaps aggregation and
// evaluation of earlier rounds.
//
// The run is bit-identical to fl.Run with the same arguments — final
// weights, per-round losses, accuracies, and uplink accounting — because
// workers build their clients from the same rng stream table as the
// in-process engine (fleet.go) and every scheduling decision stays on
// the server. Only
// measured wall times differ (they are real observations either way).
// Configurations the wire cannot execute faithfully are rejected up
// front (validateWire).
//
// Worker failure is survived, not fatal (DESIGN.md §12): a connection
// that errors, times out under the heartbeat, or sends a bad frame is
// closed and its clients re-homed — onto the same worker if it re-dials
// within FailoverGraceSec (full history replay rebuilds its rng streams
// bit-exactly), onto the lowest-index survivor otherwise. A fully
// recovered run stays bit-identical to fl.Run; when nobody can take the
// clients their in-flight dispatches are dropped through the quorum
// path and the round commits Degraded.
func Serve(ln net.Listener, opt ServeOptions, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, error) {
	s, ex, err := newServeScheduler(ln, opt, cfg, alg, network, shards, test)
	if err != nil {
		return nil, err
	}
	defer ex.close()
	if err := s.runAll(false); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// ServeResume is Serve continuing from a checkpoint written by a wire
// run (Config.OnCheckpoint under Serve): it accepts the worker fleet,
// restores the scheduler and the dispatch history, rebuilds every
// worker's rng streams by a Restore-plus-replay of that history, and
// runs the remaining rounds — bit-identical to the uninterrupted run.
// Workers may be the original processes re-attaching (cmd/flserver
// -reattach) or fresh ones; either way they start from a clean slate
// and the replay brings them to the checkpoint state.
func ServeResume(ln net.Listener, opt ServeOptions, checkpoint []byte, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*Result, error) {
	s, ex, err := newServeScheduler(ln, opt, cfg, alg, network, shards, test)
	if err != nil {
		return nil, err
	}
	defer ex.close()
	if err := s.restore(checkpoint, true); err != nil {
		return nil, err
	}
	if err := ex.resyncWorkers(); err != nil {
		return nil, err
	}
	if err := s.runAll(true); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// newServeScheduler is the shared front half of Serve and ServeResume:
// validation, the remote scheduler, the executor, and the worker fleet.
func newServeScheduler(ln net.Listener, opt ServeOptions, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, test *dataset.Dataset) (*scheduler, *remoteExec, error) {
	if opt.Workers <= 0 {
		return nil, nil, fmt.Errorf("fl: ServeOptions.Workers %d must be positive", opt.Workers)
	}
	if err := validateWire(&cfg, alg); err != nil {
		return nil, nil, err
	}
	fp := serveFingerprint(&cfg, alg.Name(), test.Name, len(shards), network.NumParams())
	s, err := newSchedulerExec(cfg, alg, network, shards, test, true)
	if err != nil {
		return nil, nil, err
	}
	ex := newRemoteExec(s.pool, cfg.Compress, len(shards), network.NumParams(), opt, cfg.faultTimeoutFactor())
	if err := ex.accept(ln, fp); err != nil {
		ex.close()
		return nil, nil, err
	}
	ex.start()
	s.exec = ex
	s.interrupt = opt.Interrupt
	if serveObserve != nil {
		serveObserve(ex)
	}
	return s, ex, nil
}

// serveConn is one worker connection on the server side.
type serveConn struct {
	c     net.Conn
	index int
	// lastRecv is the unix-nano time of the last frame read from this
	// connection (atomic; the heartbeat supervisor reads it).
	lastRecv int64
	// wmu serializes frame writes: the scheduler goroutine writes
	// Dispatch/Resume/Bye while an ingest goroutine may write Hold, the
	// supervisor Pings, and recovery replays history.
	wmu  sync.Mutex
	wbuf []byte
	// held, unsettled, and dead are guarded by remoteExec.mu. dead is
	// additionally stable while remoteExec.recoverMu is held: the only
	// writer (workerDown) holds both.
	held      bool
	unsettled int
	dead      bool
}

// write sends one pre-framed buffer.
func (sc *serveConn) write(frame []byte) error {
	sc.wmu.Lock()
	_, err := sc.c.Write(frame)
	sc.wmu.Unlock()
	return err
}

// writeEmpty sends a body-less frame of the given type.
func (sc *serveConn) writeEmpty(t wire.FrameType) error {
	sc.wmu.Lock()
	var err error
	sc.wbuf, err = wire.WriteFrame(sc.c, t, nil, sc.wbuf)
	sc.wmu.Unlock()
	return err
}

// remoteExec implements the executor seam over worker sockets. runBatch
// checks ring entries out for every dispatched client, registers them as
// pending, and serializes one Dispatch frame per owning connection —
// then returns, leaving the results in flight. Per-connection reader
// goroutines decode Updates frames straight into the pending ring
// entries; settle/settleOne block until the needed entries have landed
// and backfill TrainLoss and the measured wall time from the ring
// (update structs were copied at dispatch time, so the ring entry is the
// only stable rendezvous).
//
// The failover substrate (DESIGN.md §12) rides on two records the
// executor keeps per run: hist, each client's full dispatch history
// (ascending rounds), and globals, the exact global-model bits of every
// dispatched round. Together they let the server rebuild ANY worker
// from a cold start — reset it (FrameRestore) and replay its clients'
// histories as train-and-discard batches (FrameAdopt) — which is the
// one mechanism behind reconnect re-admission, cross-worker adoption,
// and checkpointed restart. The memory cost is O(T·d) for globals plus
// O(total dispatches) for hist, the price of replayability.
type remoteExec struct {
	ring      *slotPool
	codec     compress.Codec // nil for dense transport
	wantForm  compress.Kind  // payload form every upload must carry
	numParams int
	bound     int
	fp        uint64
	ln        net.Listener

	hb            float64 // heartbeat cadence in seconds, 0 disabled
	timeoutFactor float64 // silence budget in heartbeats before severing
	grace         float64
	noReassign    bool
	noFailover    bool

	// recoverMu serializes failure recovery (owner transfer + history
	// replay) against dispatch-frame writes: runBatch holds it across
	// its writes so a replay can never interleave with a new dispatch
	// for the same client, which would corrupt the worker's stream
	// replay order.
	recoverMu sync.Mutex

	conns []*serveConn
	owner []int // client id -> index into conns (writes hold recoverMu AND mu)

	mu       sync.Mutex
	cond     *sync.Cond
	pend     []*upload // client id -> in-flight ring entry (nil when none)
	arrived  []bool    // client id -> reply landed
	err      error
	closed   bool
	pausing  bool
	holds    int    // Hold frames sent (observability + backpressure tests)
	lostConn []bool // index -> worker lost with failover exhausted
	hist     [][]int
	globals  map[int][]float64
	// reassigned/reconnects accumulate between drainRecovery calls (the
	// scheduler drains them into each round record).
	reassigned int
	reconnects int

	reconnect []chan *serveConn // parked validated reconnects, per index
	closeCh   chan struct{}

	dispatchBuf []byte
	replayBuf   []byte
	replayID    [1]int
	readers     sync.WaitGroup
	acceptWG    sync.WaitGroup
}

// newRemoteExec builds the executor shell; accept wires the connections.
func newRemoteExec(ring *slotPool, spec compress.Spec, numClients, numParams int, opt ServeOptions, timeoutFactor float64) *remoteExec {
	e := &remoteExec{
		ring:          ring,
		wantForm:      spec.Kind,
		numParams:     numParams,
		bound:         opt.intakeBound(),
		hb:            opt.heartbeat(),
		timeoutFactor: timeoutFactor,
		grace:         opt.grace(),
		noReassign:    opt.DisableReassign,
		noFailover:    opt.DisableFailover,
		conns:         make([]*serveConn, opt.Workers),
		owner:         make([]int, numClients),
		pend:          make([]*upload, numClients),
		arrived:       make([]bool, numClients),
		lostConn:      make([]bool, opt.Workers),
		hist:          make([][]int, numClients),
		globals:       make(map[int][]float64),
		reconnect:     make([]chan *serveConn, opt.Workers),
		closeCh:       make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	if ring.comp != nil {
		e.codec = ring.comp.codec
	}
	w := opt.Workers
	for i := 0; i < w; i++ {
		for id := i * numClients / w; id < (i+1)*numClients/w; id++ {
			e.owner[id] = i
		}
	}
	for i := range e.reconnect {
		e.reconnect[i] = make(chan *serveConn, 1)
	}
	return e
}

// accept takes opt.Workers connections off ln, validates each Hello
// against the run fingerprint, and starts the reader goroutines.
// I/O-level Hello failures (a reset or truncated frame from a flaky
// path) drop the connection and keep listening; semantic rejections —
// wrong fingerprint, bad index, duplicate — abort, since the fleet is
// misconfigured.
func (e *remoteExec) accept(ln net.Listener, fp uint64) error {
	e.ln = ln
	e.fp = fp
	for got := 0; got < len(e.conns); {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("fl: accepting worker %d/%d: %w", got, len(e.conns), err)
		}
		fatal, err := e.admit(c, false)
		if err != nil {
			if fatal {
				return err
			}
			continue
		}
		got++
	}
	for _, sc := range e.conns {
		e.readers.Add(1)
		go e.readLoop(sc)
	}
	return nil
}

// start launches the background services: the reconnect accept loop and
// the heartbeat supervisor.
func (e *remoteExec) start() {
	if e.hb > 0 {
		go e.supervise()
	}
	e.acceptWG.Add(1)
	go func() {
		defer e.acceptWG.Done()
		for {
			c, err := e.ln.Accept()
			if err != nil {
				if e.isClosed() {
					return
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue
				}
				return
			}
			go func() { _, _ = e.admit(c, true) }()
		}
	}()
}

// admit validates one inbound connection's Hello. During initial accept
// (running false) it installs the worker into the fleet; during the run
// it parks the validated connection for failover to re-admit. fatal
// reports a semantic rejection that should abort initial accept.
func (e *remoteExec) admit(c net.Conn, running bool) (fatal bool, err error) {
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var fr wire.Frame
	if err := wire.ReadFrame(c, &fr); err != nil {
		c.Close()
		return false, fmt.Errorf("fl: reading hello: %w", err)
	}
	_ = c.SetReadDeadline(time.Time{})
	reject := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		_, _ = wire.WriteFrame(c, wire.FrameReject, []byte(msg), nil)
		c.Close()
		return fmt.Errorf("fl: %s", msg)
	}
	if fr.Type != wire.FrameHello {
		return true, reject("expected hello, got frame type %d", fr.Type)
	}
	gotFP, index, workers, _, err := parseHello(fr.Body)
	if err != nil {
		return true, reject("bad hello: %v", err)
	}
	switch {
	case workers != len(e.conns):
		return true, reject("worker expects %d workers, server has %d", workers, len(e.conns))
	case index < 0 || index >= len(e.conns):
		return true, reject("worker index %d out of range [0,%d)", index, len(e.conns))
	case gotFP != e.fp:
		return true, reject("config fingerprint mismatch: worker %016x, server %016x", gotFP, e.fp)
	}
	sc := &serveConn{c: c, index: index, lastRecv: time.Now().UnixNano()}
	if !running {
		if e.conns[index] != nil {
			return true, reject("duplicate worker index %d", index)
		}
		e.conns[index] = sc
		return false, nil
	}
	e.park(sc)
	return false, nil
}

// park stages a validated reconnect for its index, replacing (and
// closing) any stale candidate already waiting there.
func (e *remoteExec) park(sc *serveConn) {
	for {
		select {
		case e.reconnect[sc.index] <- sc:
			return
		default:
		}
		select {
		case old := <-e.reconnect[sc.index]:
			old.c.Close()
		default:
		}
	}
}

// isClosed reports whether close has begun.
func (e *remoteExec) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// setPausing marks the shutdown as a pause: close sends Bye with the
// pausing body so workers return ErrServerPaused and re-attach later.
func (e *remoteExec) setPausing() {
	e.mu.Lock()
	e.pausing = true
	e.mu.Unlock()
}

// fail records the first error and wakes every waiter.
func (e *remoteExec) fail(err error) error {
	e.mu.Lock()
	if e.err == nil && !e.closed {
		e.err = err
	}
	err = e.err
	e.cond.Broadcast()
	e.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("fl: server shutting down")
	}
	return err
}

// drainRecovery returns and resets the recovery counters accumulated
// since the last drain; the scheduler folds them into the round record.
func (e *remoteExec) drainRecovery() (reassigned, reconnects int) {
	e.mu.Lock()
	reassigned, reconnects = e.reassigned, e.reconnects
	e.reassigned, e.reconnects = 0, 0
	e.mu.Unlock()
	return reassigned, reconnects
}

// supervise is the heartbeat loop: every hb seconds it Pings each live
// connection and severs one whose last inbound frame is older than
// timeoutFactor heartbeats. Severing just closes the socket — the
// connection's readLoop observes the error and failover takes over, so
// liveness policy and recovery policy stay in one place.
func (e *remoteExec) supervise() {
	interval := time.Duration(e.hb * float64(time.Second))
	timeout := time.Duration(e.timeoutFactor * e.hb * float64(time.Second))
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.closeCh:
			return
		case <-t.C:
		}
		e.mu.Lock()
		conns := append([]*serveConn(nil), e.conns...)
		for i, sc := range conns {
			if sc != nil && sc.dead {
				conns[i] = nil
			}
		}
		e.mu.Unlock()
		now := time.Now().UnixNano()
		for _, sc := range conns {
			if sc == nil {
				continue
			}
			if now-atomic.LoadInt64(&sc.lastRecv) > int64(timeout) {
				// Silent past the budget: sever; readLoop recovers.
				sc.c.Close()
				continue
			}
			_ = sc.writeEmpty(wire.FramePing)
		}
	}
}

// runBatch implements executor: register pending ring entries and write
// one Dispatch frame per owning connection, without waiting for results
// — a batch of k clients costs each connection one frame and one copy of
// the global model. Dispatch times stay on the server: the wire path
// serves no adversaries, so nothing a worker computes depends on them.
// It also appends each dispatch to the replay history and snapshots the
// round's global once. Targets that are already down get their entries
// marked lost immediately (no history entry — the batch was never sent);
// a write failure mid-round closes that connection and leaves its
// entries pending for failover to re-dispatch.
func (e *remoteExec) runBatch(cfg *Config, alg Algorithm, clients []*client, ids []int, round int, _ []float64, global, prevGlobal []float64, updates []Update, measured []float64) error {
	e.recoverMu.Lock()
	defer e.recoverMu.Unlock()
	e.mu.Lock()
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		return err
	}
	for j, id := range ids {
		u := e.ring.getUpload()
		updates[j] = Update{
			Client:     id,
			Delta:      u.delta,
			NumSamples: clients[id].data.Len(),
			ring:       u,
		}
		if e.ring.comp != nil {
			updates[j].Payload = &u.pay
		}
		e.pend[id] = u
		e.arrived[id] = false
	}
	lostAny, sentAny := false, false
	for _, id := range ids {
		ci := e.owner[id]
		if sc := e.conns[ci]; sc == nil || sc.dead || e.lostConn[ci] {
			e.pend[id].lost = true
			lostAny = true
			continue
		}
		e.hist[id] = append(e.hist[id], round)
		sentAny = true
	}
	if sentAny {
		if _, ok := e.globals[round]; !ok {
			e.globals[round] = append(make([]float64, 0, len(global)), global...)
		}
	}
	if lostAny {
		e.cond.Broadcast()
	}
	e.mu.Unlock()

	// owner and conn liveness are stable below: every writer holds
	// recoverMu, which we hold for the rest of the call.
	for ci, sc := range e.conns {
		if sc == nil || sc.dead || e.lostConn[ci] {
			continue
		}
		cnt := 0
		for _, id := range ids {
			if e.owner[id] == ci {
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		buf := wire.BeginFrame(e.dispatchBuf[:0], wire.FrameDispatch)
		buf = wire.AppendUvarint(buf, uint64(round))
		buf = wire.AppendUvarint(buf, uint64(cnt))
		for _, id := range ids {
			if e.owner[id] == ci {
				buf = wire.AppendUvarint(buf, uint64(id))
			}
		}
		buf = wire.AppendUvarint(buf, uint64(len(global)))
		for _, v := range global {
			buf = wire.AppendF64(buf, v)
		}
		wire.EndFrame(buf, 0)
		e.dispatchBuf = buf
		if err := sc.write(buf); err != nil {
			if e.noFailover {
				return e.fail(fmt.Errorf("fl: dispatch to worker %d: %w", ci, err))
			}
			// Sever and move on: the readLoop observes the closed socket
			// and failover re-dispatches the still-pending entries.
			sc.c.Close()
		}
	}
	return nil
}

// settle implements executor: wait for the whole round's replies.
func (e *remoteExec) settle(updates []Update, measured []float64) error {
	for j := range updates {
		if err := e.settleOne(&updates[j], &measured[j]); err != nil {
			return err
		}
	}
	return nil
}

// settleOne implements executor: wait for one update's reply, then copy
// its train loss and measured time out of the ring entry. Liveness under
// backpressure: the server never sleeps waiting on a connection it is
// itself holding — the Hold is lifted first, since the scheduler is by
// definition ready to consume again. The owning connection is re-read
// every iteration (failover may move the client mid-wait), and an entry
// marked lost settles immediately with its ring entry's lost flag set
// for the scheduler's quorum path to compact away.
func (e *remoteExec) settleOne(u *Update, measured *float64) error {
	if u.ring == nil {
		return nil
	}
	id := u.Client
	e.mu.Lock()
	for e.err == nil && e.pend[id] != nil && !e.arrived[id] && !e.pend[id].lost {
		if sc := e.conns[e.owner[id]]; sc != nil && sc.held && !sc.dead {
			e.resumeLocked(sc)
		}
		e.cond.Wait()
	}
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		return err
	}
	if ring := e.pend[id]; ring != nil {
		e.pend[id] = nil
		if e.arrived[id] {
			e.arrived[id] = false
			u.TrainLoss = ring.loss
			if measured != nil {
				*measured = ring.measured
			}
			if via := ring.via; via != nil {
				via.unsettled--
				if via.held && !via.dead && via.unsettled <= e.bound/2 {
					e.resumeLocked(via)
				}
			}
		} else {
			// Lost: no result ever arrived. The ring entry keeps its lost
			// flag; the scheduler compacts the update out before
			// aggregation and releases the entry.
			u.TrainLoss = math.NaN()
			if measured != nil {
				*measured = 0
			}
		}
	}
	e.mu.Unlock()
	return nil
}

// resumeLocked lifts a connection's Hold (e.mu held).
func (e *remoteExec) resumeLocked(sc *serveConn) {
	sc.held = false
	if err := sc.writeEmpty(wire.FrameResume); err != nil && e.err == nil && !e.closed && e.noFailover {
		e.err = fmt.Errorf("fl: resume to worker %d: %w", sc.index, err)
	}
}

// release implements executor.
func (e *remoteExec) release(u *Update) { e.ring.release(u) }

// close implements executor: send Bye (with the pausing body when the
// run was interrupted) and wait for each worker to drain and close its
// end (a run can finish with dispatches still in flight — under async
// the round budget ends mid-pipeline — and closing first would RST the
// worker's final reply mid-write). The read deadline bounds the wait if
// a worker never drains.
func (e *remoteExec) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pausing := e.pausing
	e.cond.Broadcast()
	e.mu.Unlock()
	close(e.closeCh)
	if e.ln != nil {
		if d, ok := e.ln.(interface{ SetDeadline(time.Time) error }); ok {
			_ = d.SetDeadline(time.Now())
			e.acceptWG.Wait()
		}
	}
	var byeBody []byte
	if pausing {
		byeBody = []byte{byePausing}
	}
	for _, sc := range e.conns {
		if sc == nil {
			continue
		}
		e.mu.Lock()
		dead := sc.dead
		e.mu.Unlock()
		if dead {
			continue
		}
		sc.wmu.Lock()
		sc.wbuf, _ = wire.WriteFrame(sc.c, wire.FrameBye, byeBody, sc.wbuf)
		sc.wmu.Unlock()
		_ = sc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	}
	e.readers.Wait()
	for _, sc := range e.conns {
		if sc != nil {
			sc.c.Close()
		}
	}
	for _, ch := range e.reconnect {
		select {
		case sc := <-ch:
			sc.c.Close()
		default:
		}
	}
	e.ring.close()
}

// Holds reports how many Hold frames the server sent (backpressure
// observability; the loopback tests assert it).
func (e *remoteExec) Holds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.holds
}

// readLoop drains one worker's frames, ingesting Updates bodies straight
// into the pending ring entries. Any error — a broken socket, a bad
// frame, a protocol violation — hands the connection to failover
// (workerDown) instead of aborting the run, unless failover is disabled.
func (e *remoteExec) readLoop(sc *serveConn) {
	defer e.readers.Done()
	var fr wire.Frame
	var scratch compress.Payload // dense staging for uncompressed runs
	for {
		if err := wire.ReadFrame(sc.c, &fr); err != nil {
			if e.isClosed() {
				return
			}
			e.down(sc, err)
			return
		}
		atomic.StoreInt64(&sc.lastRecv, time.Now().UnixNano())
		switch fr.Type {
		case wire.FrameUpdates:
			if err := e.ingest(sc, fr.Body, &scratch); err != nil {
				e.down(sc, err)
				return
			}
		case wire.FramePong:
			// Liveness only; lastRecv above is the whole point.
		default:
			e.down(sc, fmt.Errorf("worker %d sent unexpected frame type %d", sc.index, fr.Type))
			return
		}
	}
}

// down routes a connection failure: fatal without failover, recovered
// otherwise.
func (e *remoteExec) down(sc *serveConn, cause error) {
	if e.noFailover {
		e.fail(fmt.Errorf("fl: worker %d: %w", sc.index, cause))
		return
	}
	e.workerDown(sc, cause)
}

// workerDown marks a connection dead and re-homes its clients. It runs
// on the connection's own reader goroutine — the single place a failure
// can be observed exactly once — and recoverMu serializes it against
// concurrent dispatches and other recoveries.
func (e *remoteExec) workerDown(sc *serveConn, cause error) {
	_ = cause
	e.recoverMu.Lock()
	defer e.recoverMu.Unlock()
	e.mu.Lock()
	if e.closed || e.err != nil || sc.dead {
		e.mu.Unlock()
		return
	}
	sc.dead = true
	sc.held = false
	e.cond.Broadcast()
	e.mu.Unlock()
	sc.c.Close()
	e.recoverIndex(sc.index)
}

// recoverIndex re-homes index's clients (recoverMu held): re-admit a
// reconnecting worker if one arrives within the grace period, otherwise
// adopt the clients onto a survivor, otherwise mark them lost — a state
// a late reconnect can still clear.
func (e *remoteExec) recoverIndex(index int) {
	for {
		if nc := e.awaitReconnect(index); nc != nil {
			if e.readmit(nc) == nil {
				return
			}
			// The replacement died during replay; wait for another.
			continue
		}
		if !e.noReassign {
			if tgt := e.liveConn(index); tgt != nil {
				// Transfer happens before the replay write, so even if tgt
				// dies mid-adoption its own recovery re-homes the adopted
				// clients along with its native ones.
				_ = e.reassign(index, tgt)
				return
			}
		}
		e.markLost(index)
		return
	}
}

// awaitReconnect waits up to the grace period for a validated reconnect
// of the given index; zero grace admits only an already-parked one.
func (e *remoteExec) awaitReconnect(index int) *serveConn {
	if e.grace <= 0 {
		select {
		case nc := <-e.reconnect[index]:
			return nc
		default:
			return nil
		}
	}
	t := time.NewTimer(time.Duration(e.grace * float64(time.Second)))
	defer t.Stop()
	select {
	case nc := <-e.reconnect[index]:
		return nc
	case <-t.C:
		return nil
	case <-e.closeCh:
		return nil
	}
}

// liveConn returns the lowest-index live connection other than not
// (deterministic adoption target), or nil when none survives.
func (e *remoteExec) liveConn(not int) *serveConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, sc := range e.conns {
		if i == not || sc == nil || sc.dead || e.lostConn[i] {
			continue
		}
		return sc
	}
	return nil
}

// readmit installs a reconnected worker (recoverMu held): replace the
// dead connection, reset the worker, replay its clients' full dispatch
// histories to rebuild its rng streams bit-exactly, re-dispatch its
// in-flight batches live, and start a reader.
func (e *remoteExec) readmit(nc *serveConn) error {
	idx := nc.index
	e.mu.Lock()
	e.conns[idx] = nc
	e.lostConn[idx] = false
	e.reconnects++
	var ids []int
	live := 0
	for id := range e.owner {
		if e.owner[id] != idx {
			continue
		}
		ids = append(ids, id)
		if e.pend[id] != nil && !e.arrived[id] && !e.pend[id].lost {
			live++
		}
	}
	e.reassigned += live
	e.mu.Unlock()
	if err := e.replayTo(nc, ids, true); err != nil {
		e.mu.Lock()
		nc.dead = true
		e.mu.Unlock()
		nc.c.Close()
		return err
	}
	atomic.StoreInt64(&nc.lastRecv, time.Now().UnixNano())
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		nc.c.Close()
		return nil
	}
	e.readers.Add(1)
	e.mu.Unlock()
	go e.readLoop(nc)
	return nil
}

// reassign adopts a dead worker's clients onto tgt (recoverMu held):
// ownership moves first, then tgt replays the transferred clients'
// histories (no Restore — tgt keeps its own live state; the transferred
// clients' streams start from zero on it, exactly what the full replay
// expects) with their in-flight batches re-dispatched live at the end.
func (e *remoteExec) reassign(index int, tgt *serveConn) error {
	e.mu.Lock()
	var ids []int
	live := 0
	for id := range e.owner {
		if e.owner[id] != index {
			continue
		}
		e.owner[id] = tgt.index
		ids = append(ids, id)
		if e.pend[id] != nil && !e.arrived[id] && !e.pend[id].lost {
			live++
		}
	}
	e.reassigned += live
	e.mu.Unlock()
	if err := e.replayTo(tgt, ids, false); err != nil {
		// tgt broke mid-adoption: sever it and let its own readLoop
		// recover everything it now owns, adopted clients included.
		tgt.c.Close()
		return err
	}
	return nil
}

// markLost gives up on index for now: in-flight dispatches to it settle
// as lost (the scheduler's quorum path decides whether the run degrades
// or halts), new dispatches to its clients are lost immediately, and a
// watcher re-admits the worker whenever it finally re-dials.
func (e *remoteExec) markLost(index int) {
	e.mu.Lock()
	e.lostConn[index] = true
	for id := range e.owner {
		if e.owner[id] == index && e.pend[id] != nil && !e.arrived[id] {
			e.pend[id].lost = true
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	go e.watchRejoin(index)
}

// watchRejoin waits indefinitely for a lost worker index to re-dial and
// re-admits it (late recovery: rounds in between commit Degraded).
func (e *remoteExec) watchRejoin(index int) {
	for {
		var nc *serveConn
		select {
		case nc = <-e.reconnect[index]:
		case <-e.closeCh:
			return
		}
		e.recoverMu.Lock()
		closed := e.isClosed()
		var err error
		if !closed {
			err = e.readmit(nc)
		}
		e.recoverMu.Unlock()
		if closed {
			nc.c.Close()
			return
		}
		if err == nil {
			return
		}
	}
}

// replayTo rebuilds a worker's training state from the dispatch record
// (recoverMu held): optionally a Restore (reset to the freshly-started
// state), then each client's history in per-client ascending-round
// order — Adopt (train and discard) for settled batches, a live
// Dispatch for the one still in flight. Per-client order is the only
// order that matters: rng streams and EF residuals are per-client, so
// interleaving across clients is free and batches are replayed one
// client at a time. The write deadline bounds a wedged target so
// recovery cannot hang the run.
func (e *remoteExec) replayTo(sc *serveConn, ids []int, restore bool) error {
	_ = sc.c.SetWriteDeadline(time.Now().Add(60 * time.Second))
	defer sc.c.SetWriteDeadline(time.Time{})
	if restore {
		if err := sc.writeEmpty(wire.FrameRestore); err != nil {
			return err
		}
	}
	for _, id := range ids {
		e.mu.Lock()
		h := e.hist[id]
		liveLast := e.pend[id] != nil && !e.arrived[id] && !e.pend[id].lost
		e.mu.Unlock()
		for k, round := range h {
			t := wire.FrameAdopt
			if liveLast && k == len(h)-1 {
				t = wire.FrameDispatch
			}
			g := e.globals[round]
			if g == nil {
				return fmt.Errorf("fl: no recorded global for round %d (replay of client %d)", round, id)
			}
			e.replayID[0] = id
			buf := wire.BeginFrame(e.replayBuf[:0], t)
			buf = appendDispatch(buf, round, e.replayID[:1], g)
			wire.EndFrame(buf, 0)
			e.replayBuf = buf
			if err := sc.write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// resyncWorkers rebuilds every live worker from the just-restored
// dispatch history — the worker half of a checkpoint restore. Restore
// rewinds each worker to its freshly-started state; the replay marches
// it forward to exactly the checkpoint's stream cursors and residuals,
// so the re-executed rounds are bit-identical to the lost ones. Workers
// that are down stay lost (a later reconnect replays the restored
// history instead).
func (e *remoteExec) resyncWorkers() error {
	e.recoverMu.Lock()
	defer e.recoverMu.Unlock()
	for ci, sc := range e.conns {
		if sc == nil || sc.dead || e.lostConn[ci] {
			continue
		}
		var ids []int
		e.mu.Lock()
		for id := range e.owner {
			if e.owner[id] == ci {
				ids = append(ids, id)
			}
		}
		e.mu.Unlock()
		if err := e.replayTo(sc, ids, true); err != nil {
			if e.noFailover {
				return fmt.Errorf("fl: resyncing worker %d: %w", ci, err)
			}
			sc.c.Close()
		}
	}
	return nil
}

// writeWireState serializes the dispatch record (per-client histories
// plus the recorded globals) — the executor's contribution to a run
// checkpoint, and what makes a checkpointed server restart able to
// rebuild workers.
func (e *remoteExec) writeWireState(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ckpt.WriteInt(w, len(e.hist)); err != nil {
		return err
	}
	for _, h := range e.hist {
		if err := ckpt.WriteInts(w, h); err != nil {
			return err
		}
	}
	rounds := make([]int, 0, len(e.globals))
	for t := range e.globals {
		rounds = append(rounds, t)
	}
	sort.Ints(rounds)
	if err := ckpt.WriteInt(w, len(rounds)); err != nil {
		return err
	}
	for _, t := range rounds {
		if err := ckpt.WriteInt(w, t); err != nil {
			return err
		}
		if err := ckpt.WriteF64s(w, e.globals[t]); err != nil {
			return err
		}
	}
	return nil
}

// readWireState restores the dispatch record written by writeWireState,
// replacing the live one (checkpoint truncation is automatic: the blob
// only holds dispatches from before the snapshot).
func (e *remoteExec) readWireState(r io.Reader) error {
	n, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if n != len(e.hist) {
		return fmt.Errorf("%d dispatch histories for %d clients", n, len(e.hist))
	}
	hist := make([][]int, n)
	for i := range hist {
		if hist[i], err = ckpt.ReadInts(r); err != nil {
			return err
		}
	}
	ng, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if ng < 0 || ng > ckpt.MaxElems {
		return fmt.Errorf("recorded-global count %d out of range", ng)
	}
	globals := make(map[int][]float64, ng)
	for i := 0; i < ng; i++ {
		t, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		g, err := ckpt.ReadF64s(r)
		if err != nil {
			return err
		}
		if len(g) != e.numParams {
			return fmt.Errorf("recorded global for round %d has %d params, want %d", t, len(g), e.numParams)
		}
		globals[t] = g
	}
	e.mu.Lock()
	e.hist = hist
	e.globals = globals
	e.mu.Unlock()
	return nil
}

// ingest decodes one Updates frame into the pending ring entries. The
// payload decodes outside the lock — the settle contract guarantees the
// scheduler does not touch a pending entry's buffers until arrived flips
// — then arrival is published and backpressure evaluated.
func (e *remoteExec) ingest(sc *serveConn, body []byte, scratch *compress.Payload) error {
	d := wire.Dec{B: body}
	cnt := d.Count(wire.MaxElems, 1)
	for i := 0; i < cnt && d.Err == nil; i++ {
		id := int(d.Uvarint())
		loss := d.F64()
		meas := d.F64()
		if d.Err != nil {
			break
		}
		if id < 0 || id >= len(e.pend) || e.owner[id] != sc.index {
			return fmt.Errorf("update for client %d not owned by this worker", id)
		}
		e.mu.Lock()
		u := e.pend[id]
		stale := u == nil || e.arrived[id]
		e.mu.Unlock()
		if stale {
			return fmt.Errorf("update for client %d is not in flight", id)
		}
		if e.codec != nil {
			if err := wire.DecodePayload(&u.pay, &d); err != nil {
				return err
			}
			if u.pay.Form != e.wantForm {
				return fmt.Errorf("client %d payload form %q, want %q", id, u.pay.Form, e.wantForm)
			}
			if u.pay.N != e.numParams {
				return fmt.Errorf("client %d payload dimension %d, want %d", id, u.pay.N, e.numParams)
			}
			e.codec.Decode(u.delta, &u.pay)
		} else {
			if err := wire.DecodePayload(scratch, &d); err != nil {
				return err
			}
			if scratch.Form != compress.KindNone || scratch.N != e.numParams {
				return fmt.Errorf("client %d dense upload form %q dimension %d, want %d raw values", id, scratch.Form, scratch.N, e.numParams)
			}
			copy(u.delta, scratch.Val)
		}
		u.loss, u.measured = loss, meas
		e.mu.Lock()
		e.arrived[id] = true
		u.lost = false
		u.via = sc
		sc.unsettled++
		if !sc.held && sc.unsettled > e.bound {
			sc.held = true
			e.holds++
			if err := sc.writeEmpty(wire.FrameHold); err != nil && e.err == nil && !e.closed && e.noFailover {
				e.err = fmt.Errorf("fl: hold to worker %d: %w", sc.index, err)
			}
		}
		e.cond.Broadcast()
		e.mu.Unlock()
	}
	if d.Err != nil {
		return d.Err
	}
	if d.Len() != 0 {
		return fmt.Errorf("%d trailing bytes in updates frame", d.Len())
	}
	return nil
}
