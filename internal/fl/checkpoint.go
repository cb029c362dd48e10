package fl

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Run checkpointing (DESIGN.md §8). A checkpoint is the complete state
// needed to resume a run bit-identically: the model and its previous
// snapshot, expulsion state, the full metric history, every rng stream
// cursor (participation, per-client samplers, adversary streams,
// quantization streams, fault streams), error-feedback residuals,
// the algorithm's cross-round state (StatefulAlgorithm), and — under the
// async policy — every in-flight update, delta included. The header
// carries a fingerprint of the configuration, architecture, and
// algorithm so a checkpoint cannot silently resume a different run.
//
// Two consumers with different needs share the format:
//   - server-crash recovery and external Resume apply the saved rng
//     cursors, so the replayed rounds are bit-identical to the lost ones;
//   - the divergence guard rolls state back but *keeps* the live
//     cursors, so the replay draws fresh batches instead of marching
//     deterministically into the same blow-up.

// Format 03 added the failover fields to the per-round record
// (ReassignedDispatches/WorkerReconnects) and the wire-execution
// sub-blob (per-client dispatch histories plus recorded globals, the
// record a restarted server replays to rebuild worker rng streams);
// format 02 added the aggregation-stack fields. Older blobs are
// rejected by the magic check rather than silently misparsed.
var runCkptMagic = [8]byte{'F', 'L', 'C', 'K', 'P', 'T', '0', '3'}

// StatefulAlgorithm is implemented by algorithms that carry cross-round
// state a checkpoint must capture — control variates (Scaffold), client
// momentum (STEM), server momentum (FedACG), or TACO's correction state
// and alpha history. Stateless algorithms (FedAvg, FedProx, FoolsGold)
// need no hooks: their runs resume bit-identically from the model alone.
type StatefulAlgorithm interface {
	Algorithm
	// SaveState serializes the algorithm's cross-round state.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState into an algorithm
	// that has been Setup with the same Env.
	LoadState(r io.Reader) error
}

// fingerprint hashes everything a checkpoint must agree on with the
// scheduler restoring it: the configuration (minus the checkpoint
// callback), the architecture, the algorithm, and the fleet size.
func (s *scheduler) fingerprint() uint64 {
	c := s.cfg
	c.OnCheckpoint = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|net=%x|alg=%s|d=%d|n=%d", c, s.env.Net.Fingerprint(), s.alg.Name(), len(s.params), len(s.fleet.clients))
	return h.Sum64()
}

// snapshot serializes the scheduler's state as of the start of round t
// into the reusable checkpoint buffer, retains it for in-run recovery,
// and hands it to the OnCheckpoint callback when one is set.
func (s *scheduler) snapshot(t int) error {
	if len(s.buffer) != 0 {
		return fmt.Errorf("fl: checkpoint at round %d with %d buffered async updates (not a round boundary)", t, len(s.buffer))
	}
	s.ckptBuf.Reset()
	w := &s.ckptBuf
	w.Write(runCkptMagic[:])
	if err := ckpt.WriteU64(w, s.fingerprint()); err != nil {
		return err
	}
	ckpt.WriteInt(w, t)
	ckpt.WriteF64(w, s.now)
	ckpt.WriteInt(w, s.version)
	ckpt.WriteF64(w, s.lastAgg)
	ckpt.WriteF64s(w, s.params)
	ckpt.WriteF64s(w, s.wPrev)

	ckpt.WriteInt(w, len(s.active))
	for _, a := range s.active {
		ckpt.WriteBool(w, a)
	}
	expelledIDs := make([]int, 0, len(s.expelled))
	for id := range s.expelled {
		expelledIDs = append(expelledIDs, id)
	}
	sort.Ints(expelledIDs)
	ckpt.WriteInt(w, len(expelledIDs))
	for _, id := range expelledIDs {
		ckpt.WriteInt(w, id)
		ckpt.WriteInt(w, s.expelled[id])
	}
	ckpt.WriteBool(w, s.cumWeights != nil)
	if s.cumWeights != nil {
		ckpt.WriteF64s(w, s.cumWeights)
	}
	writeRunHistory(w, s.run)

	// rng cursors, in stream-table order. A client that was never built
	// records its fresh stream state, so the blob is the same whichever
	// clients happen to have been built.
	if err := ckpt.WriteCursor(w, s.partRNG); err != nil {
		return err
	}
	f := s.fleet
	var fresh rng.RNG
	for i := range f.clients {
		if err := ckpt.WriteCursor(w, f.stream(streamSampler, i, &fresh)); err != nil {
			return err
		}
	}
	for _, c := range f.clients {
		ckpt.WriteBool(w, c.corrupt())
		if !c.corrupt() {
			continue
		}
		if err := ckpt.WriteCursor(w, c.adv.r); err != nil {
			return err
		}
		ckpt.WriteInt(w, len(c.adv.alts))
		for _, alt := range c.adv.alts {
			if err := ckpt.WriteCursor(w, alt.sampler.Stream()); err != nil {
				return err
			}
		}
	}
	comp := s.pool.comp
	ckpt.WriteBool(w, comp != nil)
	if comp != nil {
		for i := range f.clients {
			if err := ckpt.WriteCursor(w, f.stream(streamCompress, i, &fresh)); err != nil {
				return err
			}
		}
		// fp32 residuals are widened to float64 rows on the wire: widening
		// is exact and restore's narrowing is its exact inverse, so the
		// round-trip is bit-identical without a second on-disk row format.
		// (DType is fingerprinted, so a blob can never be restored under
		// the other precision.)
		rows := make([][]float64, len(f.clients))
		for i, c := range f.clients {
			switch {
			case c == nil:
			case c.resid32 != nil:
				rows[i] = make([]float64, len(c.resid32))
				vecmath.Widen(rows[i], c.resid32)
			default:
				rows[i] = c.resid
			}
		}
		if err := ckpt.WriteF64Rows(w, rows); err != nil {
			return err
		}
	}
	ckpt.WriteBool(w, s.plan != nil)
	if s.plan != nil {
		for _, cf := range s.plan.perClient {
			ckpt.WriteBool(w, cf != nil)
			if cf != nil {
				if err := ckpt.WriteCursor(w, cf.r); err != nil {
					return err
				}
			}
		}
	}

	sa, stateful := s.alg.(StatefulAlgorithm)
	ckpt.WriteBool(w, stateful)
	if stateful {
		if err := sa.SaveState(w); err != nil {
			return fmt.Errorf("fl: checkpoint algorithm state: %w", err)
		}
	}

	ckpt.WriteBool(w, s.cfg.Policy == PolicyAsync)
	if s.cfg.Policy == PolicyAsync {
		for i := range s.pending {
			f := &s.pending[i]
			ckpt.WriteBool(w, f.live)
			if !f.live {
				continue
			}
			ckpt.WriteInt(w, f.version)
			ckpt.WriteF64(w, f.measured)
			ckpt.WriteF64(w, f.finish)
			ckpt.WriteBool(w, f.failed)
			ckpt.WriteInt(w, f.attempt)
			ckpt.WriteBool(w, f.dup)
			ckpt.WriteF64(w, f.update.TrainLoss)
			ckpt.WriteBool(w, f.update.Corrupt)
			ckpt.WriteF64s(w, f.update.Delta)
			ckpt.WriteBool(w, f.update.Payload != nil)
			if f.update.Payload != nil {
				writePayload(w, f.update.Payload)
			}
		}
		if s.attempts != nil {
			ckpt.WriteBool(w, true)
			ckpt.WriteInts(w, s.attempts)
		} else {
			ckpt.WriteBool(w, false)
		}
	}

	// Wire-execution sub-blob, last so every in-process field keeps its
	// offset: a marker for the execution mode (a wire blob restored
	// in-process would leave server-side sampler cursors authoritative
	// for state that actually lives in workers, and vice versa — both
	// are silently wrong, so cross-mode restores are rejected), then the
	// dispatch record a restarted server needs to rebuild its workers.
	rx, isWire := s.exec.(*remoteExec)
	ckpt.WriteBool(w, isWire)
	if isWire {
		if err := rx.writeWireState(w); err != nil {
			return fmt.Errorf("fl: checkpoint wire state: %w", err)
		}
	}

	s.lastCkpt = append(s.lastCkpt[:0], w.Bytes()...)
	s.lastCkptRound = t
	if s.cfg.OnCheckpoint != nil {
		s.cfg.OnCheckpoint(t, s.lastCkpt)
	}
	return nil
}

// restoreLast restores the retained in-run checkpoint and returns the
// round it resumes at. applyRNG selects between bit-identical replay
// (server-crash recovery) and fresh draws (divergence rollback).
func (s *scheduler) restoreLast(applyRNG bool) (int, error) {
	if s.lastCkpt == nil {
		return 0, fmt.Errorf("fl: no checkpoint to restore")
	}
	if err := s.restore(s.lastCkpt, applyRNG); err != nil {
		return 0, err
	}
	return s.startRound, nil
}

// restore deserializes a checkpoint into the scheduler. The scheduler
// must have been built from the same config/model/algorithm/shards
// (enforced by the header fingerprint). With applyRNG false the stream
// cursors in the checkpoint are consumed but not applied.
func (s *scheduler) restore(data []byte, applyRNG bool) error {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("fl: checkpoint read: %w", err)
	}
	if magic != runCkptMagic {
		return fmt.Errorf("fl: checkpoint: bad magic %q", magic[:])
	}
	fp, err := ckpt.ReadU64(r)
	if err != nil {
		return fmt.Errorf("fl: checkpoint read: %w", err)
	}
	if fp != s.fingerprint() {
		return fmt.Errorf("fl: checkpoint fingerprint %x does not match this run %x (different config, model, or algorithm)", fp, s.fingerprint())
	}
	if err := s.restoreBody(r, applyRNG); err != nil {
		return fmt.Errorf("fl: checkpoint restore: %w", err)
	}
	return nil
}

// restoreBody decodes everything after the header. It is split out so
// every early return funnels through restore's error wrapping.
func (s *scheduler) restoreBody(r *bytes.Reader, applyRNG bool) error {
	var err error
	if s.startRound, err = ckpt.ReadInt(r); err != nil {
		return err
	}
	if s.startRound < 0 || s.startRound > s.cfg.Rounds {
		return fmt.Errorf("resume round %d outside [0,%d]", s.startRound, s.cfg.Rounds)
	}
	if s.now, err = ckpt.ReadF64(r); err != nil {
		return err
	}
	if s.version, err = ckpt.ReadInt(r); err != nil {
		return err
	}
	if s.lastAgg, err = ckpt.ReadF64(r); err != nil {
		return err
	}
	if err = ckpt.ReadF64sInto(r, s.params); err != nil {
		return fmt.Errorf("params: %w", err)
	}
	if err = ckpt.ReadF64sInto(r, s.wPrev); err != nil {
		return fmt.Errorf("wPrev: %w", err)
	}

	nActive, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if nActive != len(s.active) {
		return fmt.Errorf("%d active flags for %d clients", nActive, len(s.active))
	}
	for i := range s.active {
		if s.active[i], err = ckpt.ReadBool(r); err != nil {
			return err
		}
	}
	nExp, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if nExp < 0 || nExp > len(s.active) {
		return fmt.Errorf("%d expelled entries for %d clients", nExp, len(s.active))
	}
	clear(s.expelled)
	for i := 0; i < nExp; i++ {
		id, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		round, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		if id < 0 || id >= len(s.active) {
			return fmt.Errorf("expelled id %d outside [0,%d)", id, len(s.active))
		}
		s.expelled[id] = round
	}
	hasCum, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	if hasCum != (s.cumWeights != nil) {
		return fmt.Errorf("cumulative-weight presence mismatch")
	}
	if hasCum {
		if err = ckpt.ReadF64sInto(r, s.cumWeights); err != nil {
			return fmt.Errorf("cumWeights: %w", err)
		}
	}
	if err = readRunHistory(r, s.run, s.cfg.Rounds); err != nil {
		return fmt.Errorf("run history: %w", err)
	}

	cursor := func(u ckpt.Unmarshaler) error {
		if applyRNG {
			return ckpt.ReadCursor(r, u)
		}
		return ckpt.SkipCursor(r)
	}
	f := s.fleet
	clientCursor := func(kind streamKind, id int) error {
		if applyRNG {
			return f.restoreCursor(r, kind, id)
		}
		return ckpt.SkipCursor(r)
	}
	if err = cursor(s.partRNG); err != nil {
		return fmt.Errorf("participation stream: %w", err)
	}
	for i := range f.clients {
		if err = clientCursor(streamSampler, i); err != nil {
			return fmt.Errorf("client %d sampler: %w", i, err)
		}
	}
	for i, c := range f.clients {
		hasAdv, err := ckpt.ReadBool(r)
		if err != nil {
			return err
		}
		if hasAdv != c.corrupt() {
			return fmt.Errorf("client %d adversary presence mismatch", i)
		}
		if !hasAdv {
			continue
		}
		if err = cursor(c.adv.r); err != nil {
			return fmt.Errorf("client %d adversary stream: %w", i, err)
		}
		nAlts, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		if nAlts != len(c.adv.alts) {
			return fmt.Errorf("client %d has %d data corruptions, checkpoint %d", i, len(c.adv.alts), nAlts)
		}
		for _, alt := range c.adv.alts {
			if err = cursor(alt.sampler.Stream()); err != nil {
				return fmt.Errorf("client %d corrupt sampler: %w", i, err)
			}
		}
	}
	hasComp, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	if hasComp != (s.pool.comp != nil) {
		return fmt.Errorf("compression presence mismatch")
	}
	if s.pool.comp != nil {
		for i := range f.clients {
			if err = clientCursor(streamCompress, i); err != nil {
				return fmt.Errorf("client %d quantization stream: %w", i, err)
			}
		}
		// EF residuals are algorithm state, not stream cursors: restored
		// unconditionally so a rollback rewinds the error feedback too.
		rows, err := ckpt.ReadF64Rows(r)
		if err != nil {
			return fmt.Errorf("EF residuals: %w", err)
		}
		if rows != nil && len(rows) != len(f.clients) {
			return fmt.Errorf("%d residual rows for %d clients", len(rows), len(f.clients))
		}
		for i, c := range f.clients {
			if rows == nil || rows[i] == nil {
				if c != nil {
					c.resid, c.resid32 = nil, nil
				}
				continue
			}
			if len(rows[i]) != len(s.params) {
				return fmt.Errorf("client %d residual length %d, want %d", i, len(rows[i]), len(s.params))
			}
			c = f.get(i)
			if s.pool.comp.f32 {
				if c.resid32 == nil {
					c.resid32 = make([]float32, len(s.params))
				}
				vecmath.Narrow(c.resid32, rows[i])
			} else {
				c.resid = rows[i]
			}
		}
	}
	hasPlan, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	if hasPlan != (s.plan != nil) {
		return fmt.Errorf("fault-plan presence mismatch")
	}
	if s.plan != nil {
		for i, cf := range s.plan.perClient {
			has, err := ckpt.ReadBool(r)
			if err != nil {
				return err
			}
			if has != (cf != nil) {
				return fmt.Errorf("client %d fault-stream presence mismatch", i)
			}
			if cf != nil {
				if err = cursor(cf.r); err != nil {
					return fmt.Errorf("client %d fault stream: %w", i, err)
				}
			}
		}
	}

	stateful, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	sa, isStateful := s.alg.(StatefulAlgorithm)
	if stateful != isStateful {
		return fmt.Errorf("algorithm statefulness mismatch")
	}
	if stateful {
		if err = sa.LoadState(r); err != nil {
			return fmt.Errorf("algorithm state: %w", err)
		}
	}

	isAsync, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	if isAsync != (s.cfg.Policy == PolicyAsync) {
		return fmt.Errorf("policy mismatch")
	}
	if isAsync {
		if s.pending == nil {
			s.initAsync()
		}
		for id := range s.pending {
			// Drop any current in-flight state; restored flights get
			// fresh ring entries below.
			s.pending[id] = flight{}
			live, err := ckpt.ReadBool(r)
			if err != nil {
				return err
			}
			if !live {
				continue
			}
			f := &s.pending[id]
			f.live = true
			if f.version, err = ckpt.ReadInt(r); err != nil {
				return err
			}
			if f.measured, err = ckpt.ReadF64(r); err != nil {
				return err
			}
			if f.finish, err = ckpt.ReadF64(r); err != nil {
				return err
			}
			if f.failed, err = ckpt.ReadBool(r); err != nil {
				return err
			}
			if f.attempt, err = ckpt.ReadInt(r); err != nil {
				return err
			}
			if f.dup, err = ckpt.ReadBool(r); err != nil {
				return err
			}
			u := s.pool.getUpload()
			c := s.fleet.get(id)
			f.update = Update{
				Client:     id,
				Delta:      u.delta,
				NumSamples: c.data.Len(),
				Corrupt:    c.corrupt(),
				ring:       u,
			}
			if f.update.TrainLoss, err = ckpt.ReadF64(r); err != nil {
				return err
			}
			if f.update.Corrupt, err = ckpt.ReadBool(r); err != nil {
				return err
			}
			if err = ckpt.ReadF64sInto(r, u.delta); err != nil {
				return fmt.Errorf("client %d in-flight delta: %w", id, err)
			}
			hasPay, err := ckpt.ReadBool(r)
			if err != nil {
				return err
			}
			if hasPay != (s.pool.comp != nil) {
				return fmt.Errorf("client %d in-flight payload presence mismatch", id)
			}
			if hasPay {
				if err = readPayloadInto(r, &u.pay); err != nil {
					return fmt.Errorf("client %d in-flight payload: %w", id, err)
				}
				f.update.Payload = &u.pay
			}
		}
		hasAttempts, err := ckpt.ReadBool(r)
		if err != nil {
			return err
		}
		if hasAttempts != (s.attempts != nil) {
			return fmt.Errorf("retry-attempt table presence mismatch")
		}
		if hasAttempts {
			att, err := ckpt.ReadInts(r)
			if err != nil {
				return err
			}
			if att != nil && len(att) != len(s.attempts) {
				return fmt.Errorf("%d attempt entries for %d clients", len(att), len(s.attempts))
			}
			for i := range s.attempts {
				if att == nil {
					s.attempts[i] = 0
				} else {
					s.attempts[i] = att[i]
				}
			}
		}
		s.arrivals.rebuild(s.pending)
		s.buffer = s.buffer[:0]
		s.bufMeasured = 0
	}
	fromWire, err := ckpt.ReadBool(r)
	if err != nil {
		return err
	}
	rx, isWire := s.exec.(*remoteExec)
	if fromWire && !isWire {
		return fmt.Errorf("checkpoint was written by a wire run (fl.Serve); restore it with ServeResume")
	}
	if !fromWire && isWire {
		return fmt.Errorf("checkpoint was written by an in-process run (fl.Run); restore it with Resume")
	}
	if fromWire {
		if err := rx.readWireState(r); err != nil {
			return fmt.Errorf("wire state: %w", err)
		}
	}
	s.stepRetries, s.stepDropped, s.stepDups, s.stepDupBytes = 0, 0, 0, 0
	s.failStreak = 0
	return nil
}

// writeRunHistory serializes the metric history accumulated so far.
// The run-level recovery counters (RecoveredRounds, Rollbacks, Halt*)
// are process-local — they describe what happened to *this* execution,
// so restores must not erase them — and are therefore not serialized.
func writeRunHistory(w io.Writer, run *metrics.Run) {
	ckpt.WriteBool(w, run.Diverged)
	ckpt.WriteInt(w, run.DivergedRound)
	ckpt.WriteInt(w, len(run.Rounds))
	for i := range run.Rounds {
		writeRound(w, &run.Rounds[i])
	}
}

// readRunHistory restores history written by writeRunHistory, reusing
// the run's round slice.
func readRunHistory(r io.Reader, run *metrics.Run, maxRounds int) error {
	var err error
	if run.Diverged, err = ckpt.ReadBool(r); err != nil {
		return err
	}
	if run.DivergedRound, err = ckpt.ReadInt(r); err != nil {
		return err
	}
	n, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if n < 0 || n > maxRounds {
		return fmt.Errorf("%d recorded rounds exceeds budget %d", n, maxRounds)
	}
	run.Rounds = run.Rounds[:0]
	for i := 0; i < n; i++ {
		var rec metrics.Round
		if err := readRound(r, &rec); err != nil {
			return err
		}
		run.Rounds = append(run.Rounds, rec)
	}
	return nil
}

// writeRound serializes one round record, field for field in struct
// order; readRound mirrors it exactly.
func writeRound(w io.Writer, rec *metrics.Round) {
	ckpt.WriteInt(w, rec.Index)
	ckpt.WriteF64(w, rec.Accuracy)
	ckpt.WriteF64(w, rec.TrainLoss)
	ckpt.WriteF64(w, rec.SlowestModeledSec)
	ckpt.WriteF64(w, rec.SlowestMeasuredSec)
	ckpt.WriteF64(w, rec.CumModeledSec)
	ckpt.WriteF64(w, rec.CumMeasuredSec)
	ckpt.WriteF64(w, rec.MeanAlpha)
	ckpt.WriteF64(w, rec.MeanStaleness)
	ckpt.WriteInt(w, rec.MaxStaleness)
	ckpt.WriteInt(w, rec.DroppedClients)
	ckpt.WriteInt(w, rec.Retries)
	ckpt.WriteInt(w, rec.DroppedUpdates)
	ckpt.WriteInt(w, rec.DupUpdates)
	ckpt.WriteBool(w, rec.Degraded)
	ckpt.WriteInt(w, rec.ZeroedUpdates)
	ckpt.WriteInt(w, rec.ClippedUpdates)
	ckpt.WriteF64(w, rec.ClipNorm)
	ckpt.WriteF64(w, rec.HonestWeight)
	ckpt.WriteF64(w, rec.CorruptWeight)
	ckpt.WriteU64(w, uint64(rec.UplinkBytes))
	ckpt.WriteF64(w, rec.CompressionRatio)
	ckpt.WriteInt(w, rec.ReassignedDispatches)
	ckpt.WriteInt(w, rec.WorkerReconnects)
}

func readRound(r io.Reader, rec *metrics.Round) error {
	var err error
	read := func(dst *float64) {
		if err == nil {
			*dst, err = ckpt.ReadF64(r)
		}
	}
	readi := func(dst *int) {
		if err == nil {
			*dst, err = ckpt.ReadInt(r)
		}
	}
	readi(&rec.Index)
	read(&rec.Accuracy)
	read(&rec.TrainLoss)
	read(&rec.SlowestModeledSec)
	read(&rec.SlowestMeasuredSec)
	read(&rec.CumModeledSec)
	read(&rec.CumMeasuredSec)
	read(&rec.MeanAlpha)
	read(&rec.MeanStaleness)
	readi(&rec.MaxStaleness)
	readi(&rec.DroppedClients)
	readi(&rec.Retries)
	readi(&rec.DroppedUpdates)
	readi(&rec.DupUpdates)
	if err == nil {
		rec.Degraded, err = ckpt.ReadBool(r)
	}
	readi(&rec.ZeroedUpdates)
	readi(&rec.ClippedUpdates)
	read(&rec.ClipNorm)
	read(&rec.HonestWeight)
	read(&rec.CorruptWeight)
	if err == nil {
		var v uint64
		v, err = ckpt.ReadU64(r)
		rec.UplinkBytes = int64(v)
	}
	read(&rec.CompressionRatio)
	readi(&rec.ReassignedDispatches)
	readi(&rec.WorkerReconnects)
	return err
}

// writePayload serializes an encoded update payload (the async policy's
// in-flight uploads carry one when a codec is live).
func writePayload(w io.Writer, p *compress.Payload) {
	ckpt.WriteBytes(w, []byte(p.Form))
	ckpt.WriteInt(w, p.N)
	ckpt.WriteInt(w, p.ChunkLen)
	ckpt.WriteInt(w, len(p.Idx))
	for _, v := range p.Idx {
		ckpt.WriteInt(w, int(v))
	}
	ckpt.WriteF64s(w, p.Val)
	ckpt.WriteInt(w, len(p.Q))
	for _, v := range p.Q {
		ckpt.WriteInt(w, int(v))
	}
	ckpt.WriteF64s(w, p.Scale)
}

// readPayloadInto restores a payload into the ring entry's pre-grown
// backing arrays.
func readPayloadInto(r io.Reader, p *compress.Payload) error {
	form, err := ckpt.ReadBytes(r)
	if err != nil {
		return err
	}
	p.Form = compress.Kind(form)
	if p.N, err = ckpt.ReadInt(r); err != nil {
		return err
	}
	if p.ChunkLen, err = ckpt.ReadInt(r); err != nil {
		return err
	}
	nIdx, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if nIdx < 0 || nIdx > ckpt.MaxElems {
		return fmt.Errorf("payload index count %d out of range", nIdx)
	}
	p.Idx = p.Idx[:0]
	for i := 0; i < nIdx; i++ {
		v, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		p.Idx = append(p.Idx, int32(v))
	}
	val, err := ckpt.ReadF64s(r)
	if err != nil {
		return err
	}
	p.Val = append(p.Val[:0], val...)
	nQ, err := ckpt.ReadInt(r)
	if err != nil {
		return err
	}
	if nQ < 0 || nQ > ckpt.MaxElems {
		return fmt.Errorf("payload quantum count %d out of range", nQ)
	}
	p.Q = p.Q[:0]
	for i := 0; i < nQ; i++ {
		v, err := ckpt.ReadInt(r)
		if err != nil {
			return err
		}
		p.Q = append(p.Q, int8(v))
	}
	scale, err := ckpt.ReadF64s(r)
	if err != nil {
		return err
	}
	p.Scale = append(p.Scale[:0], scale...)
	return nil
}
