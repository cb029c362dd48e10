package fl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/wire"
)

// ErrServerPaused is returned by RunWorker when the server shut the run
// down before completion — an interrupted (SIGINT/SIGTERM) flserver that
// intends to restart from a checkpoint. The worker should re-dial and
// re-attach; a clean Bye (run complete) returns nil instead.
var ErrServerPaused = errors.New("fl: server paused the run (re-attach after it restarts)")

// WorkerOptions configures the connection-level behavior of RunWorkerOpts.
type WorkerOptions struct {
	// Index and Workers place this worker in the fleet: it initially owns
	// the contiguous client range [Index·n/W, (Index+1)·n/W). Failover may
	// later adopt clients outside that range onto it.
	Index, Workers int
	// Attach is the re-attach counter sent in Hello: 0 on the first
	// connection, incremented on every re-dial after a connection loss.
	// A positive Attach tells the server this worker's rng streams are
	// fresh and must be rebuilt by a history replay before new dispatches.
	Attach int
	// HeartbeatSec bounds read liveness: when positive, the worker arms a
	// read deadline of FaultTimeoutFactor (default 3) × HeartbeatSec
	// before every frame read, so a dead server is detected instead of
	// blocking forever. It should match the server's
	// ServeOptions.HeartbeatSec (the server's Pings are what keep the
	// deadline fed between dispatches). 0 disables the deadline.
	HeartbeatSec float64
}

// RunWorker executes the client side of a wire run with default
// connection options; see RunWorkerOpts.
func RunWorker(conn net.Conn, index, workers int, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, dsName string) error {
	return RunWorkerOpts(conn, WorkerOptions{Index: index, Workers: workers}, cfg, alg, network, shards, dsName)
}

// RunWorkerOpts executes the client side of a wire run (cmd/flserver
// -mode worker): it builds the run's stream table from the shared seed,
// announces itself with the config fingerprint, and then trains every
// dispatched batch on an in-process slot pool, streaming the results
// back as Updates frames. The connection is closed when it returns.
//
// Bit-identity with fl.Run rests on the stream table (fleet.go): a
// dispatched client is built from the same (seed, draw index) as its
// in-process twin — sampler and quantization streams alike — and the
// streams the server owns (init, participation, adversary, fault) are
// simply never read here. Given identical streams and identical
// training code, every delta, loss, and encoded payload matches the
// in-process run to the bit.
//
// Failover (DESIGN.md §12) extends the contract across worker loss: any
// client can be built on any worker, and a client's streams advance only
// when it trains, so the server can move a dead worker's clients onto a
// survivor by replaying their full dispatch history as Adopt frames
// (train and discard — each replayed batch advances the sampler and
// quantization streams exactly as the original training did). A Restore
// frame forgets every built client — the worker's freshly-started state,
// fresh streams and empty residuals — so the same replay mechanism
// serves a server restarting from a checkpoint behind live workers.
func RunWorkerOpts(conn net.Conn, opt WorkerOptions, cfg Config, alg Algorithm, network *nn.Network, shards []*dataset.Dataset, dsName string) error {
	defer conn.Close()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := validateWire(&cfg, alg); err != nil {
		return err
	}
	index, workers := opt.Index, opt.Workers
	if workers <= 0 || index < 0 || index >= workers {
		return fmt.Errorf("fl: worker index %d out of range [0,%d)", index, workers)
	}
	n := len(shards)
	fp := serveFingerprint(&cfg, alg.Name(), dsName, n, network.NumParams())

	fc, _, err := newFleet(&cfg, shards)
	if err != nil {
		return err
	}
	env := &Env{
		Net:        network,
		NumClients: n,
		NumParams:  network.NumParams(),
		Devices:    cfg.Devices,
		Cfg:        cfg,
	}
	alg, err = wrapStack(alg, &cfg)
	if err != nil {
		return err
	}
	alg.Setup(env)

	// The pool serves the whole fleet, not just the initially owned range
	// (failover can adopt any client onto this worker), but every
	// dispatch carries at most one round's cohort.
	pool := newSlotPool(network, cfg, n)
	defer pool.close()
	if fc.streams.codec {
		codec, err := cfg.Compress.Codec()
		if err != nil {
			return fmt.Errorf("fl: %w", err)
		}
		pool.comp = &compressor{codec: codec, f32: cfg.isF32()}
	}

	w := &workerLoop{conn: conn, fp: fp, heartbeat: opt.HeartbeatSec, timeoutFactor: cfg.faultTimeoutFactor()}
	w.cond = sync.NewCond(&w.mu)

	hello := wire.BeginFrame(nil, wire.FrameHello)
	hello = appendHello(hello, fp, index, workers, opt.Attach)
	wire.EndFrame(hello, 0)
	if err := w.write(hello); err != nil {
		return fmt.Errorf("fl: sending hello: %w", err)
	}
	go w.readLoop()

	wbuf := hello
	cohort := cfg.maxCohort(n)
	updates := make([]Update, cohort)
	measured := make([]float64, cohort)
	for {
		m, ok := w.next()
		if !ok {
			break
		}
		if m.restore {
			fc.reset()
			continue
		}
		k := len(m.ids)
		for _, id := range m.ids {
			if id < 0 || id >= n {
				return fmt.Errorf("fl: dispatched client %d outside fleet [0,%d)", id, n)
			}
		}
		if k > cohort {
			// A dispatch carries part of one round's cohort, so a larger
			// batch is a protocol violation.
			return fmt.Errorf("fl: dispatch of %d clients exceeds the largest cohort %d", k, cohort)
		}
		fc.materialize(m.ids)
		if err := pool.runRound(&cfg, alg, fc.clients, m.ids, m.round, 0, m.global, m.global, updates[:k], measured[:k]); err != nil {
			return err
		}
		if m.adopt {
			// Adopted history: the training advanced this worker's streams
			// (and EF residuals) exactly as the original run did; the server
			// already holds the results, so nothing is uploaded.
			for j := 0; j < k; j++ {
				pool.release(&updates[j])
			}
			continue
		}
		buf := wire.BeginFrame(wbuf[:0], wire.FrameUpdates)
		buf = wire.AppendUvarint(buf, uint64(k))
		for j := 0; j < k; j++ {
			buf = appendUpdateEntry(buf, &updates[j], measured[j])
		}
		wire.EndFrame(buf, 0)
		wbuf = buf
		w.waitResumed()
		if w.stopped() {
			// The run ended while this batch trained; the result is
			// abandoned, not sent (the server is only waiting for EOF).
			break
		}
		if err := w.write(buf); err != nil {
			return fmt.Errorf("fl: sending updates: %w", err)
		}
		for j := 0; j < k; j++ {
			pool.release(&updates[j])
		}
	}
	return w.readErr()
}

// workerLoop is RunWorker's connection state: the reader goroutine that
// turns incoming frames into an unbounded dispatch queue (unbounded so
// the reader NEVER blocks — a Resume frame must get through even while
// dispatches are queued, or a held worker would deadlock; depth is
// bounded in practice by the server's pipelining), and the Hold/Resume
// gate the training loop blocks on before each upload.
type workerLoop struct {
	conn          net.Conn
	fp            uint64
	heartbeat     float64
	timeoutFactor float64

	// wmu serializes frame writes: the training loop writes Hello/Updates
	// while the reader goroutine answers Pings with Pongs.
	wmu     sync.Mutex
	pongBuf []byte

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*dispatchMsg
	done  bool
	held  bool
	// paused marks a Bye whose body flags an interrupted (not completed)
	// run; readErr surfaces it as ErrServerPaused.
	paused bool
	err    error
}

// write sends one pre-framed buffer under the write lock.
func (w *workerLoop) write(frame []byte) error {
	w.wmu.Lock()
	_, err := w.conn.Write(frame)
	w.wmu.Unlock()
	return err
}

// next pops the oldest queued dispatch, waiting for one; ok is false
// once the stream has ended (cleanly or not — readErr distinguishes).
// Dispatches still queued at that point are abandoned: Bye means the run
// completed, so the server has no use for their results.
func (w *workerLoop) next() (*dispatchMsg, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.queue) == 0 && !w.done {
		w.cond.Wait()
	}
	if w.done {
		return nil, false
	}
	m := w.queue[0]
	w.queue = w.queue[1:]
	return m, true
}

// waitResumed blocks while the server holds this worker. Bye releases
// the gate too: a held connection whose in-flight work the run abandoned
// gets no Resume.
func (w *workerLoop) waitResumed() {
	w.mu.Lock()
	for w.held && w.err == nil && !w.done {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// stopped reports whether the stream has ended.
func (w *workerLoop) stopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// readErr reports why the job stream ended: nil after a clean Bye,
// ErrServerPaused after an interrupting one.
func (w *workerLoop) readErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && w.paused {
		return ErrServerPaused
	}
	return w.err
}

// fail records the terminal error and releases the training loop.
func (w *workerLoop) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.done = true
	w.held = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// readLoop decodes incoming frames until the stream ends. Dispatches and
// the failover frames (Adopt, Restore) queue up behind the training loop
// (the queue preserves the server's per-client replay order); Hold/
// Resume flip the upload gate; Ping is answered immediately; Bye ends
// the stream cleanly.
func (w *workerLoop) readLoop() {
	var fr wire.Frame
	for {
		if w.heartbeat > 0 {
			deadline := time.Duration(w.timeoutFactor * w.heartbeat * float64(time.Second))
			_ = w.conn.SetReadDeadline(time.Now().Add(deadline))
		}
		if err := wire.ReadFrame(w.conn, &fr); err != nil {
			w.fail(fmt.Errorf("fl: reading from server: %w", err))
			return
		}
		switch fr.Type {
		case wire.FrameDispatch, wire.FrameAdopt:
			m, err := parseDispatch(fr.Body)
			if err != nil {
				w.fail(err)
				return
			}
			m.adopt = fr.Type == wire.FrameAdopt
			w.mu.Lock()
			w.queue = append(w.queue, m)
			w.cond.Broadcast()
			w.mu.Unlock()
		case wire.FrameRestore:
			w.mu.Lock()
			w.queue = append(w.queue, &dispatchMsg{restore: true})
			w.cond.Broadcast()
			w.mu.Unlock()
		case wire.FramePing:
			w.wmu.Lock()
			var err error
			w.pongBuf, err = wire.WriteFrame(w.conn, wire.FramePong, nil, w.pongBuf)
			w.wmu.Unlock()
			if err != nil {
				w.fail(fmt.Errorf("fl: answering ping: %w", err))
				return
			}
		case wire.FrameHold:
			w.mu.Lock()
			w.held = true
			w.mu.Unlock()
		case wire.FrameResume:
			w.mu.Lock()
			w.held = false
			w.cond.Broadcast()
			w.mu.Unlock()
		case wire.FrameBye:
			w.mu.Lock()
			w.paused = len(fr.Body) > 0 && fr.Body[0] == byePausing
			w.done = true
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		case wire.FrameReject:
			w.fail(fmt.Errorf("fl: server rejected worker (this worker's config fingerprint %016x): %s", w.fp, fr.Body))
			return
		default:
			w.fail(fmt.Errorf("fl: unexpected frame type %d from server", fr.Type))
			return
		}
	}
}
