package fl

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/rng"
)

// TestStreamTableMatchesSequentialDerivation pins the stream table to the
// derivation order it replaces: init, every sampler, participation, the
// adversaries in first-seen order, every compression stream, then the
// fault subjects in ascending order, all Derive'd one after another from
// rng.New(seed).
func TestStreamTableMatchesSequentialDerivation(t *testing.T) {
	const n = 40
	cfg := Config{
		Seed:        99,
		Freeloaders: []int{30},
		Adversaries: []adversary.Spec{
			{Kind: adversary.KindSignFlip, Clients: []int{12, 3}},
			{Kind: adversary.KindScale, Clients: []int{30, 3, 7}},
		},
		Compress: compress.Spec{Kind: compress.KindTopK},
	}
	table, advIDs := newStreamTable(&cfg, n)
	if want := []int{30, 3, 12, 7}; !slices.Equal(advIDs, want) {
		t.Fatalf("adversaries in first-seen order %v, want %v", advIDs, want)
	}
	faultIDs := []int{5, 9, 33}

	same := func(what string, want, got *rng.RNG) {
		t.Helper()
		a, _ := want.MarshalBinary()
		b, _ := got.MarshalBinary()
		if string(a) != string(b) {
			t.Fatalf("%s: table stream %x, sequential %x", what, b, a)
		}
	}
	root := rng.New(cfg.Seed)
	same("init", root.Derive("init", 0), table.derive(streamInit, 0))
	for i := 0; i < n; i++ {
		same("sampler", root.Derive("sampler", i), table.derive(streamSampler, i))
	}
	same("participation", root.Derive("participation", 0), table.derive(streamParticipation, 0))
	adv := table.cursor(streamAdversary)
	for _, id := range advIDs {
		same("adversary", root.Derive("adversary", id), adv.Derive("adversary", id))
	}
	for i := 0; i < n; i++ {
		same("compress", root.Derive("compress", i), table.derive(streamCompress, i))
	}
	flt := table.cursor(streamFault)
	for _, id := range faultIDs {
		same("fault", root.Derive("fault", id), flt.Derive("fault", id))
	}
}

// TestLazyFleetCheckpointResume pins the lazy fleet's checkpoint contract
// on a large partially-participating fleet with a codec and faults: a
// blob records fresh cursors for clients never built, and resuming it in
// a new scheduler — which builds only the clients whose recorded state
// moved — finishes bit-identical to the uninterrupted run.
func TestLazyFleetCheckpointResume(t *testing.T) {
	net, base, test := poolSetup(t, 50)
	shards := make([]*dataset.Dataset, 2000)
	for i := range shards {
		shards[i] = base[i%len(base)]
	}
	cfg := Config{
		Rounds: 6, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5, EvalEvery: 3,
		ParticipationFraction: 0.01,
		CheckpointEvery:       3,
		Compress:              compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.1},
		Faults:                []fault.Spec{{Kind: fault.KindCrash, Frac: 0.2, Clients: []int{1, 500, 1999}}},
	}
	var blob []byte
	cfg.OnCheckpoint = func(round int, data []byte) {
		if round == 3 {
			blob = append([]byte(nil), data...)
		}
	}
	want, err := Run(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint at round 3")
	}
	cfg.OnCheckpoint = nil
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.exec.close()
	if err := s.restore(blob, true); err != nil {
		t.Fatal(err)
	}
	builtAtRestore := 0
	for _, c := range s.fleet.clients {
		if c != nil {
			builtAtRestore++
		}
	}
	// Three rounds of 20 clients trained before the checkpoint, so at most
	// 60 clients carry moved streams or residuals.
	if builtAtRestore == 0 || builtAtRestore > 60 {
		t.Fatalf("restore built %d clients, want between 1 and 60", builtAtRestore)
	}
	if err := s.runAll(true); err != nil {
		t.Fatal(err)
	}
	sameRunTail(t, want, s.result(), 3)
}

// sameRunTail compares final parameters and the deterministic fields of
// every round record from round `from` on.
func sameRunTail(t *testing.T, want, got *Result, from int) {
	t.Helper()
	if wh, gh := paramsHash(want.FinalParams), paramsHash(got.FinalParams); wh != gh {
		t.Fatalf("final params %016x, uninterrupted %016x", gh, wh)
	}
	if len(want.Run.Rounds) != len(got.Run.Rounds) {
		t.Fatalf("%d rounds, uninterrupted %d", len(got.Run.Rounds), len(want.Run.Rounds))
	}
	for i := from; i < len(want.Run.Rounds); i++ {
		w, g := want.Run.Rounds[i], got.Run.Rounds[i]
		w.SlowestMeasuredSec, g.SlowestMeasuredSec = 0, 0
		w.CumMeasuredSec, g.CumMeasuredSec = 0, 0
		if w != g {
			t.Fatalf("round %d:\nresumed       %+v\nuninterrupted %+v", i, g, w)
		}
	}
}

// TestMillionClientSetup is the bounded-memory scale exit: setting up a
// 1M-client tiled fleet costs O(cohort) allocations plus a handful of
// fleet-sized tables (a client pointer, an active flag, and a 4-byte
// shuffle slot per client), and rounds at 0.01% participation run. It
// stays on in -short mode so the race-detector CI leg covers it.
func TestMillionClientSetup(t *testing.T) {
	const n = 1_000_000
	net, base, test := poolSetup(t, 100)
	shards := make([]*dataset.Dataset, n)
	for i := range shards {
		shards[i] = base[i%len(base)]
	}
	cfg := Config{
		Rounds: 3, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 3, EvalEvery: 1000,
		Parallelism:           2,
		ParticipationFraction: 0.0001,
	}

	// MemStats counts the whole process, so take the cheapest of three
	// setups: a stray allocation elsewhere cannot push all three over.
	var s *scheduler
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		if s != nil {
			s.exec.close()
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		s, err = newScheduler(cfg, goldenFedAvg{}, net, shards, test)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		allocs = min(allocs, m1.Mallocs-m0.Mallocs)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	defer s.exec.close()
	t.Logf("newScheduler over %d clients: %d allocations, %.1f MB", n, allocs, float64(bytes)/1e6)
	if allocs > 100 {
		t.Errorf("newScheduler made %d allocations, want ≤ 100", allocs)
	}
	if bytes > 16e6 {
		t.Errorf("newScheduler allocated %d bytes, want ≤ 16 MB", bytes)
	}

	if err := s.runAll(false); err != nil {
		t.Fatal(err)
	}
	if got := len(s.run.Rounds); got != cfg.Rounds {
		t.Fatalf("%d rounds completed, want %d", got, cfg.Rounds)
	}
	built := 0
	for _, c := range s.fleet.clients {
		if c != nil {
			built++
		}
	}
	if built == 0 || built > cfg.Rounds*100 {
		t.Fatalf("%d clients built for %d rounds of 100", built, cfg.Rounds)
	}
}
