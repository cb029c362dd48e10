package fl

import (
	"hash/fnv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

// frozenCase is one configuration whose outputs are pinned as literal
// hashes recorded on the code before a refactor (the lazy fleet, then
// batched async dispatch): the FNV-1a of the final parameters of a full
// Run, and the FNV-1a of a checkpoint blob taken after a few rounds. The referenceRun golden covers only the sync
// policy over a small fleet; these pin the paths it does not reach
// (async + codec, deadline + faults, adversaries, large tiled fleets,
// fp32), so a refactor that moves the in-process path and its serve twin
// together still cannot pass unnoticed.
type frozenCase struct {
	name  string
	fleet int // clients, tiled from 100 Dirichlet shards when > 100
	// alg names the algorithm in FrozenAlgorithms; empty runs goldenFedAvg.
	alg    string
	cfg    func(*Config, float64)
	rounds int // rounds (server steps) before the checkpoint blob
	// want is {params, blob} per amd64 kernel path: [0] the portable kernels
	// (noasm builds, or CPUs without AVX2+FMA), [1] the AVX2+FMA
	// assembly, whose float results differ in the last bits.
	want [2][2]uint64
}

var frozenCases = []frozenCase{
	{
		name:  "async-topk-ef",
		fleet: 12,
		cfg: func(c *Config, _ float64) {
			c.Policy = PolicyAsync
			c.AsyncBuffer = 3
			c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}
		},
		rounds: 4,
		want: [2][2]uint64{
			{0x4e106df619c22827, 0xa2ab851b248969b3},
			{0x421381148c42e09e, 0x42f28df0bce49e7b},
		},
	},
	// The three async cases below were recorded before arrivals were
	// batched: they pin what the batch boundaries must not move —
	// Scaffold's EndLocal-before-Aggregate order, fault outcomes and
	// backoff dispatch times fixed at dispatch, and each job's own
	// dispatch time gating its adversary windows.
	{
		name:  "async-scaffold",
		fleet: 12,
		alg:   "scaffold",
		cfg: func(c *Config, _ float64) {
			c.Policy = PolicyAsync
			c.AsyncBuffer = 4
			c.Devices = simclock.MildFleet(12, 5)
		},
		rounds: 4,
		want: [2][2]uint64{
			{0xe4028e8f180dbd5c, 0xcef7f2dede364634},
			{0x6cecfbe2b46cee4f, 0xd09b76c6d73d2abe},
		},
	},
	{
		name:  "async-taco-faults",
		fleet: 12,
		alg:   "taco",
		cfg: func(c *Config, _ float64) {
			c.Policy = PolicyAsync
			c.AsyncBuffer = 3
			c.Devices = simclock.MildFleet(12, 6)
			c.Faults = []fault.Spec{
				{Kind: fault.KindCrash, Frac: 0.25},
				{Kind: fault.KindDrop, Frac: 0.15},
				{Kind: fault.KindDup, Frac: 0.3},
				{Kind: fault.KindSlow, Frac: 0.3, Param: 4},
			}
			c.FaultRetries = 3
		},
		rounds: 4,
		want: [2][2]uint64{
			{0xba468359707b7c0d, 0x35d2a454c011d2ad},
			{0xa1ad12d352588ef2, 0xee32018876566f69},
		},
	},
	{
		name:  "async-adversary-window",
		fleet: 12,
		cfg: func(c *Config, nominal float64) {
			c.Rounds = 10
			c.Policy = PolicyAsync
			c.AsyncBuffer = 5
			c.Devices = simclock.MildFleet(12, 7)
			c.Freeloaders = []int{10}
			win := simclock.Trace{PeriodSec: 0.7 * nominal, OnFraction: 0.5, OffsetSec: 0.2 * nominal}
			c.Adversaries = []adversary.Spec{
				{Kind: adversary.KindLabelFlip, Clients: []int{1, 2, 5, 8}, Window: win},
				{Kind: adversary.KindScale, Clients: []int{4, 5, 9}, Scale: 3, Window: win},
				{Kind: adversary.KindFreeloader, Clients: []int{3, 11}, Window: simclock.Trace{PeriodSec: 0.9 * nominal, OnFraction: 0.5}},
			}
		},
		rounds: 6,
		want: [2][2]uint64{
			{0xcb9856cfce3d91e6, 0xdca3ca32b9394865},
			{0x83fbe8a44e7f3943, 0xfeb0bb48ed79ca54},
		},
	},
	{
		name:  "deadline-faults",
		fleet: 12,
		cfg: func(c *Config, nominal float64) {
			c.Policy = PolicyDeadline
			c.RoundDeadlineSec = 3 * nominal
			c.Faults = []fault.Spec{
				{Kind: fault.KindCrash, Frac: 0.2},
				{Kind: fault.KindDrop, Frac: 0.1, Clients: []int{2, 5, 7}},
				{Kind: fault.KindDup, Frac: 0.3},
				{Kind: fault.KindSlow, Frac: 0.3, Param: 4},
			}
			c.Quorum = 0.5
		},
		rounds: 3,
		want: [2][2]uint64{
			{0x4a7dc8dd37743f1a, 0x50bd05d5d30c21a2},
			{0x525d2a67a7c1aceb, 0x1e98164be3d49d8b},
		},
	},
	{
		name:  "adversary-mix",
		fleet: 12,
		cfg: func(c *Config, _ float64) {
			c.Freeloaders = []int{9}
			c.Adversaries = []adversary.Spec{
				{Kind: adversary.KindLabelFlip, Clients: []int{4, 1}},
				{Kind: adversary.KindScale, Clients: []int{1, 7}, Scale: 3},
			}
		},
		rounds: 3,
		want: [2][2]uint64{
			{0xe3adf5cb0551c7de, 0x2ca79a65aefeb4e5},
			{0x928417de7a0a6d53, 0xa4d35dd77929ea70},
		},
	},
	{
		name:  "partial-10k-tiled",
		fleet: 10000,
		cfg: func(c *Config, _ float64) {
			c.ParticipationFraction = 0.01
		},
		rounds: 3,
		want: [2][2]uint64{
			{0x208c1ed017fe3586, 0xdf58fa3cc24c3dae},
			{0xbc3897c7ca8c7e9b, 0xb8a3d1ff628051c6},
		},
	},
	{
		name:  "f32-int8",
		fleet: 12,
		cfg: func(c *Config, _ float64) {
			c.DType = "f32"
			c.Compress = compress.Spec{Kind: compress.KindInt8}
			c.ParticipationFraction = 0.5
		},
		rounds: 3,
		want: [2][2]uint64{
			{0x136cd5ababdb579f, 0x0f40dd40cd2eca46},
			{0x7cebf70f0f62f42b, 0x73600120e045adcf},
		},
	},
}

// FrozenAlgorithms supplies the real algorithms frozen cases name.
// baselines and core import this package, so its internal tests cannot;
// the external test package registers them (frozen_algs_test.go).
var FrozenAlgorithms = map[string]func() Algorithm{}

// blobHash runs the case's first rounds on a white-box scheduler, zeroes
// the wall-clock fields (real measured seconds, the only nondeterministic
// bytes a checkpoint carries), snapshots, and hashes the blob.
func blobHash(t *testing.T, s *scheduler, rounds int) uint64 {
	t.Helper()
	var step func(int) (bool, error)
	switch s.cfg.Policy {
	case PolicyAsync:
		if err := s.setupAsync(); err != nil {
			t.Fatal(err)
		}
		step = s.asyncStep
	case PolicyDeadline:
		step = s.deadlineRound
	default:
		step = s.syncRound
	}
	for r := 0; r < rounds; r++ {
		if halt, err := step(r); err != nil || halt {
			t.Fatalf("round %d: halt=%v err=%v", r, halt, err)
		}
	}
	for i := range s.run.Rounds {
		s.run.Rounds[i].SlowestMeasuredSec = 0
		s.run.Rounds[i].CumMeasuredSec = 0
	}
	for i := range s.pending {
		s.pending[i].measured = 0
	}
	if err := s.snapshot(rounds); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(s.lastCkpt)
	return h.Sum64()
}

// TestFrozenHashes pins final parameters and one mid-run checkpoint blob
// per case against constants recorded before the refactor they guard.
func TestFrozenHashes(t *testing.T) {
	for _, tc := range frozenCases {
		t.Run(tc.name, func(t *testing.T) {
			base := min(tc.fleet, 100)
			net, shards, test := poolSetup(t, base)
			fleet := make([]*dataset.Dataset, tc.fleet)
			for i := range fleet {
				fleet[i] = shards[i%base]
			}
			cfg := Config{Rounds: 6, LocalSteps: 3, BatchSize: 8, LocalLR: 0.05, Seed: 23, EvalEvery: 3}
			nominal := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
			tc.cfg(&cfg, nominal)
			newAlg := func() Algorithm { return goldenFedAvg{} }
			if tc.alg != "" {
				newAlg = FrozenAlgorithms[tc.alg]
				if newAlg == nil {
					t.Fatalf("algorithm %q not registered in FrozenAlgorithms", tc.alg)
				}
			}

			res, err := Run(cfg, newAlg(), net, fleet, test)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newScheduler(cfg, newAlg(), net, fleet, test)
			if err != nil {
				t.Fatal(err)
			}
			defer s.exec.close()
			want := tc.want[0]
			if vecmath.Accelerated() {
				want = tc.want[1]
			}
			gotParams, gotBlob := paramsHash(res.FinalParams), blobHash(t, s, tc.rounds)
			if gotParams != want[0] || gotBlob != want[1] {
				t.Fatalf("hashes moved: params %#016x (frozen %#016x), blob %#016x (frozen %#016x)", gotParams, want[0], gotBlob, want[1])
			}
		})
	}
}
