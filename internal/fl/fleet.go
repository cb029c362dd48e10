package fl

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// streamKind names one family of rng streams a run derives from its root
// rng.New(Config.Seed).
type streamKind int

const (
	streamInit streamKind = iota
	streamSampler
	streamParticipation
	streamAdversary
	streamCompress
	streamFault
)

// streamLabels are the Derive labels of each kind.
var streamLabels = [...]string{
	streamInit:          "init",
	streamSampler:       "sampler",
	streamParticipation: "participation",
	streamAdversary:     "adversary",
	streamCompress:      "compress",
	streamFault:         "fault",
}

// streamTable is the run's one rng stream table (DESIGN.md §4): every
// stream is Derive'd from the root's draw at a fixed index, and the
// table maps (kind, k) to that index. The order is the one the engine
// has always derived in, so every stream is bit-identical to a
// sequential derivation, but a stream is now a pure function of (seed,
// index) — rng.DeriveSeed jumps straight to it — so clients can be built
// in any order, or never. The scheduler and the wire worker both read
// streams from here; nothing else writes the derivation order down.
type streamTable struct {
	seed  uint64
	n     int  // fleet size
	adv   int  // distinct adversarial clients (A)
	codec bool // a lossy uplink codec is live (compression streams exist)
}

// newStreamTable builds the table for cfg over n clients. advIDs are the
// distinct in-range adversarial client IDs in first-seen order (specs in
// declaration order, members in ascending order) — the order
// setupAdversaries derives their streams in.
func newStreamTable(cfg *Config, n int) (streamTable, []int) {
	var advIDs []int
	seen := map[int]bool{}
	for _, spec := range cfg.adversarySpecs() {
		for _, id := range spec.Members(n) {
			if id >= 0 && id < n && !seen[id] {
				seen[id] = true
				advIDs = append(advIDs, id)
			}
		}
	}
	return streamTable{
		seed:  cfg.Seed,
		n:     n,
		adv:   len(advIDs),
		codec: cfg.Compress.Kind != compress.KindNone,
	}, advIDs
}

// For returns the root draw index of kind's k-th stream, where k is the
// client ID for sampler and compress streams and the client's rank for
// adversary streams (first-seen order) and fault streams (ascending
// subject ID):
//
//	init            0
//	sampler i       1 + i
//	participation   1 + n
//	adversary r     2 + n + r
//	compress i      2 + n + A + i
//	fault r         2 + n + A + (n if a codec is live) + r
func (t *streamTable) For(kind streamKind, k int) uint64 {
	n, a, i := uint64(t.n), uint64(t.adv), uint64(k)
	switch kind {
	case streamInit:
		return 0
	case streamSampler:
		return 1 + i
	case streamParticipation:
		return 1 + n
	case streamAdversary:
		return 2 + n + i
	case streamCompress:
		return 2 + n + a + i
	default:
		if t.codec {
			return 2 + n + a + n + i
		}
		return 2 + n + a + i
	}
}

// childSeed returns the seed of client id's stream of a per-client kind
// (sampler or compress), or of the single init/participation stream
// (id 0).
func (t *streamTable) childSeed(kind streamKind, id int) uint64 {
	return rng.DeriveSeed(t.seed, t.For(kind, id), streamLabels[kind], id)
}

// derive returns a fresh copy of a childSeed stream.
func (t *streamTable) derive(kind streamKind, id int) *rng.RNG {
	return rng.New(t.childSeed(kind, id))
}

// cursor returns the root positioned at the first stream of a
// rank-ordered kind (adversary, fault), for setup code that derives that
// block's streams in rank order.
func (t *streamTable) cursor(kind streamKind) *rng.RNG {
	return rng.NewAt(t.seed, t.For(kind, 0))
}

// fleet is the run's client identities, built lazily: clients[id] stays
// nil until the client first participates, when get derives its streams
// from the table. Because a stream is a pure function of (seed, index),
// the order clients are built in cannot change a bit, and a run that
// samples a small cohort from a huge fleet pays only for the clients it
// actually touches. Only one goroutine builds clients at a time — the
// scheduler's, or the wire worker's training loop — and always before
// the clients are handed to an executor.
type fleet struct {
	shards  []*dataset.Dataset
	streams streamTable
	clients []*client
}

func newFleet(cfg *Config, shards []*dataset.Dataset) (*fleet, []int, error) {
	n := len(shards)
	if n == 0 {
		return nil, nil, fmt.Errorf("fl: no client shards")
	}
	for i, s := range shards {
		if s.Len() == 0 {
			return nil, nil, fmt.Errorf("fl: client %d has no data", i)
		}
	}
	streams, advIDs := newStreamTable(cfg, n)
	return &fleet{shards: shards, streams: streams, clients: make([]*client, n)}, advIDs, nil
}

// get returns client id, building it on first use — one allocation: the
// record embeds its sampler and streams.
func (f *fleet) get(id int) *client {
	if c := f.clients[id]; c != nil {
		return c
	}
	c := &client{id: id, data: f.shards[id]}
	c.samplerRNG.Reset(f.streams.childSeed(streamSampler, id))
	c.smp.Reset(c.data, &c.samplerRNG)
	c.sampler = &c.smp
	if f.streams.codec {
		c.codecRNG.Reset(f.streams.childSeed(streamCompress, id))
	}
	f.clients[id] = c
	return c
}

// materialize builds every not-yet-built client among ids.
func (f *fleet) materialize(ids []int) {
	for _, id := range ids {
		f.get(id)
	}
}

// reset forgets every built client, returning the fleet to its
// freshly-started state (the wire worker's Restore frame).
func (f *fleet) reset() { clear(f.clients) }

// stream returns client id's stream of a per-client kind (sampler or
// compress): the live one once the client is built, else its fresh state
// written into tmp — the cursor a checkpoint records for a client that
// never trained.
func (f *fleet) stream(kind streamKind, id int, tmp *rng.RNG) *rng.RNG {
	if c := f.clients[id]; c != nil {
		if kind == streamSampler {
			return c.sampler.Stream()
		}
		return &c.codecRNG
	}
	tmp.Reset(f.streams.childSeed(kind, id))
	return tmp
}

// restoreCursor reads client id's checkpointed cursor of a per-client
// kind and applies it. A client never built whose recorded cursor is
// still the fresh state stays unbuilt; any other cursor builds the
// client first.
func (f *fleet) restoreCursor(r io.Reader, kind streamKind, id int) error {
	data, err := ckpt.ReadBytes(r)
	if err != nil {
		return err
	}
	var tmp rng.RNG
	if f.clients[id] == nil {
		fresh, err := f.stream(kind, id, &tmp).MarshalBinary()
		if err != nil {
			return err
		}
		if bytes.Equal(fresh, data) {
			return nil
		}
		f.get(id)
	}
	return f.stream(kind, id, &tmp).UnmarshalBinary(data)
}
