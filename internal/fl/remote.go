package fl

import (
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/wire"
)

// WireSafe marks algorithms whose client-side hooks (LocalInit,
// BeginLocal, GradAdjust, EndLocal) are pure functions of the dispatched
// global model and the config — no state written by Aggregate is ever
// read on the client. Only such algorithms can run under fl.Serve, where
// clients live in other processes and the server's aggregation state is
// never shipped to them: a stateful algorithm (Scaffold's control
// variates, FedACG's momentum, TACO's α-weights) would silently train
// against stale state instead of failing loudly, so Serve rejects
// anything unmarked. The marker belongs on the raw algorithm; stack
// wrappers are checked through their inner algorithm.
type WireSafe interface {
	// WireSafe is a marker; it is never called.
	WireSafe()
}

// validateWire rejects configurations the wire path cannot execute
// faithfully. Adversaries and freeloaders are out: their fabricators and
// injectors run on the dispatch path with server-held state (prevGlobal,
// window clocks) that workers do not have. Checkpointing — and the
// servercrash fault, which restores from a checkpoint — runs over the
// wire under the sync and deadline policies, where every dispatch
// settles inside its round and a snapshot therefore lands on a quiet
// boundary; under the async policy a snapshot would have to serialize
// in-flight deltas that may still be crossing the socket, so the
// combination is rejected. Scheduler-side faults (crash/drop/dup/slow)
// stay available everywhere — they are resolved from server-owned rng
// streams before dispatch, so workers never see them.
func validateWire(cfg *Config, alg Algorithm) error {
	if _, ok := alg.(WireSafe); !ok {
		return fmt.Errorf("fl: algorithm %s is not wire-safe (client hooks may read server aggregation state)", alg.Name())
	}
	if len(cfg.Adversaries) > 0 || len(cfg.Freeloaders) > 0 {
		return fmt.Errorf("fl: adversaries are not supported over the wire")
	}
	ckpt := cfg.CheckpointEvery > 0 || cfg.OnCheckpoint != nil
	for _, f := range cfg.Faults {
		if f.Kind == fault.KindServerCrash {
			ckpt = true
		}
	}
	if ckpt && cfg.Policy == PolicyAsync {
		return fmt.Errorf("fl: checkpointing over the wire requires the sync or deadline policy (async snapshots would serialize in-flight uploads)")
	}
	return nil
}

// serveFingerprint hashes everything that must agree between the server
// and a worker for their client streams and local training to be
// bit-identical: the training config, the codec, the algorithm, and
// the data geometry. Workers send it in Hello; a mismatch is rejected
// before any training happens.
func serveFingerprint(cfg *Config, algName, dsName string, numClients, numParams int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v1|%d|%d|%d|%x|%x|%d|%s|%v|%x|%d|%s|%x|%d|%s|%g|%d|%s|%s|%d|%d",
		cfg.Rounds, cfg.LocalSteps, cfg.BatchSize,
		cfg.LocalLR, cfg.GlobalLR, cfg.Seed, cfg.DType,
		cfg.WeightByData, cfg.ParticipationFraction,
		int(cfg.Policy), cfg.Policy.String(), cfg.RoundDeadlineSec, cfg.AsyncBuffer,
		cfg.Compress.Kind, cfg.Compress.TopKFrac, cfg.Compress.Chunk,
		algName, dsName, numClients, numParams)
	return h.Sum64()
}

// Frame-body encodings for the flserver protocol (frame types in
// internal/wire). All integers are uvarints, all floats raw little-
// endian float64 bits.

// appendHello encodes a worker's Hello: fingerprint, worker index,
// worker count, and the attach counter — the worker's resume token,
// 0 on its first connection and incremented on every re-dial, so the
// server can tell a fresh fleet member from one re-attaching after a
// connection loss (a re-attaching worker's rng streams restart from
// zero and must be rebuilt by a history replay).
func appendHello(dst []byte, fp uint64, index, workers, attach int) []byte {
	dst = wire.AppendU64(dst, fp)
	dst = wire.AppendUvarint(dst, uint64(index))
	dst = wire.AppendUvarint(dst, uint64(workers))
	return wire.AppendUvarint(dst, uint64(attach))
}

// parseHello decodes a Hello body.
func parseHello(body []byte) (fp uint64, index, workers, attach int, err error) {
	d := wire.Dec{B: body}
	fp = d.U64()
	index = int(d.Uvarint())
	workers = int(d.Uvarint())
	attach = int(d.Uvarint())
	if d.Err == nil && d.Len() != 0 {
		d.Err = fmt.Errorf("fl: %d trailing bytes in hello", d.Len())
	}
	return fp, index, workers, attach, d.Err
}

// appendDispatch encodes one dispatch batch: the round (the server
// version under the async policy), the client IDs to train, and the
// global model snapshot they train from.
func appendDispatch(dst []byte, round int, ids []int, global []float64) []byte {
	dst = wire.AppendUvarint(dst, uint64(round))
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = wire.AppendUvarint(dst, uint64(id))
	}
	dst = wire.AppendUvarint(dst, uint64(len(global)))
	for _, v := range global {
		dst = wire.AppendF64(dst, v)
	}
	return dst
}

// byePausing is the Bye body code for a server that is pausing the run
// (interrupted, intending a checkpointed restart) rather than completing
// it; workers surface it as ErrServerPaused. An empty Bye body means the
// run finished.
const byePausing byte = 1

// dispatchMsg is one decoded dispatch batch. The slices are owned by the
// message (workers process dispatches strictly in order, but decode them
// on the reader goroutine while training runs). adopt marks a replayed
// batch the worker trains and discards; restore marks a body-less worker
// reset (both ride the same in-order queue so a replay lands exactly
// where the server sequenced it).
type dispatchMsg struct {
	round   int
	ids     []int
	global  []float64
	adopt   bool
	restore bool
}

// parseDispatch decodes a dispatch body.
func parseDispatch(body []byte) (*dispatchMsg, error) {
	d := wire.Dec{B: body}
	m := &dispatchMsg{round: int(d.Uvarint())}
	k := d.Count(wire.MaxElems, 1)
	m.ids = make([]int, k)
	for j := 0; j < k && d.Err == nil; j++ {
		m.ids[j] = int(d.Uvarint())
	}
	n := d.Count(wire.MaxElems, 8)
	m.global = make([]float64, n)
	for i := 0; i < n && d.Err == nil; i++ {
		m.global[i] = d.F64()
	}
	if d.Err == nil && d.Len() != 0 {
		d.Err = fmt.Errorf("fl: %d trailing bytes in dispatch", d.Len())
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return m, nil
}

// appendUpdateEntry encodes one completed client result inside an
// Updates frame: id, train loss, measured wall seconds, then the payload
// (the codec encoding when compression is live, the dense fallback
// otherwise — self-delimiting either way).
func appendUpdateEntry(dst []byte, u *Update, measured float64) []byte {
	dst = wire.AppendUvarint(dst, uint64(u.Client))
	dst = wire.AppendF64(dst, u.TrainLoss)
	dst = wire.AppendF64(dst, measured)
	if u.Payload != nil {
		return wire.AppendPayload(dst, u.Payload)
	}
	return wire.AppendDense(dst, u.Delta)
}
