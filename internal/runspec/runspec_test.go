package runspec

import (
	"encoding/binary"
	"flag"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// The two binaries' default literals, as stated in cmd/flsim and
// cmd/flserver.
var (
	simDefaults = Spec{
		Dataset: "fmnist", Alg: "TACO", Clients: 20, Rounds: 25, LocalSteps: 10, Batch: 24,
		LR: 0.05, Partition: "groups", Phi: 0.5, Seed: 7, Scale: "small",
		Policy: "sync", Hetero: "uniform", DType: "f64",
	}
	serverDefaults = Spec{
		Dataset: "adult", Alg: "FedAvg", Clients: 20, Rounds: 5, LocalSteps: 10, Batch: 24,
		LR: 0.05, Partition: "dir", Phi: 0.5, Seed: 7, Scale: "small",
		Policy: "sync", Hetero: "uniform",
	}
)

// nominal is the nominal modeled round of a dataset's model, which the
// deadline default and the extreme fleet are anchored to.
func nominal(t *testing.T, ds string, batch, k int) float64 {
	t.Helper()
	net, err := dataset.Model(ds)
	if err != nil {
		t.Fatal(err)
	}
	return simclock.RoundSeconds(net.GradFlops(batch), k, simclock.Plain())
}

// referenceShards partitions the dataset the way flsim and flserver did
// before the data half went through Profile.Materialize.
func referenceShards(t *testing.T, ds, kind string, clients int, phi float64, seed uint64) ([]*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard(ds, dataset.ScaleSmall, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed).Derive("partition", 0)
	var part *partition.Partition
	switch kind {
	case "groups":
		part, _, err = partition.Groups(train, partition.PaperGroups(clients), r)
	case "dir":
		part, err = partition.Dirichlet(train, clients, phi, r)
	case "iid":
		part, err = partition.IID(train, clients, r)
	case "natural":
		part, err = partition.ByNaturalGroups(train, clients, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return part.Shards(train), test
}

// hashRows hashes every shard's rows (features and labels, in order) and
// the shard boundaries.
func hashRows(shards ...*dataset.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range shards {
		binary.LittleEndian.PutUint64(b[:], uint64(d.Len()))
		h.Write(b[:])
		for _, v := range d.X {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, y := range d.Y {
			binary.LittleEndian.PutUint64(b[:], uint64(y))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestBuildReproducesParentRuns parses fixed flag lines and checks that
// Build yields the config, algorithm and data the two binaries built by
// hand before runspec existed.
func TestBuildReproducesParentRuns(t *testing.T) {
	fmnistNominal := nominal(t, "fmnist", 24, 10)
	fmnist := func(mod func(*fl.Config)) fl.Config {
		c := fl.Config{Rounds: 25, LocalSteps: 10, BatchSize: 24, LocalLR: 0.05, Seed: 7, DType: "f64",
			Devices: simclock.UniformFleet(20)}
		if mod != nil {
			mod(&c)
		}
		return c
	}
	detect := core.Recommended()
	detect.DetectFreeloaders = true
	taco, _ := experiments.NewAlgorithm("TACO")
	fedavg, _ := experiments.NewAlgorithm("FedAvg")

	type data struct {
		ds, kind string
		clients  int
		seed     uint64
	}
	fmnistGroups := data{"fmnist", "groups", 20, 7}
	cases := []struct {
		name string
		base Spec
		line string
		want fl.Config
		alg  fl.Algorithm
		data data
	}{
		{"flsim defaults", simDefaults, "", fmnist(nil), taco, fmnistGroups},
		{"flserver defaults", serverDefaults, "",
			fl.Config{Rounds: 5, LocalSteps: 10, BatchSize: 24, LocalLR: 0.05, Seed: 7, Devices: simclock.UniformFleet(20)},
			fedavg, data{"adult", "dir", 20, 7}},
		{"CI CFG", serverDefaults, "-dataset adult -clients 12 -rounds 3 -k 4 -batch 16 -compress topk:0.25 -seed 11",
			fl.Config{Rounds: 3, LocalSteps: 4, BatchSize: 16, LocalLR: 0.05, Seed: 11, Devices: simclock.UniformFleet(12),
				Compress: compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.25}},
			fedavg, data{"adult", "dir", 12, 11}},
		{"deadline", simDefaults, "-policy deadline", fmnist(func(c *fl.Config) {
			c.Policy, c.RoundDeadlineSec = fl.PolicyDeadline, 1.5*fmnistNominal
		}), taco, fmnistGroups},
		{"async extreme", simDefaults, "-policy async -hetero extreme", fmnist(func(c *fl.Config) {
			c.Policy, c.AsyncBuffer = fl.PolicyAsync, 5
			c.Devices = simclock.ExtremeFleet(20, fmnistNominal, 7)
		}), taco, fmnistGroups},
		{"iid", simDefaults, "-partition iid", fmnist(nil), taco, data{"fmnist", "iid", 20, 7}},
		{"freeloaders", simDefaults, "-freeloaders 8 -detect", fmnist(func(c *fl.Config) {
			c.Freeloaders = []int{12, 13, 14, 15, 16, 17, 18, 19}
		}), core.New(detect), fmnistGroups},
		{"topk", simDefaults, "-compress topk -topk 0.01", fmnist(func(c *fl.Config) {
			c.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.01}
		}), taco, fmnistGroups},
		{"attack+stack", simDefaults, "-attack scale:0.25:20 -aggstack zeroing|clip -serveropt adam", fmnist(func(c *fl.Config) {
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindScale, Frac: 0.25, Scale: 20}}
			c.AggStack = aggstack.StackSpec{Stages: []aggstack.StageSpec{{Kind: aggstack.StageZeroing}, {Kind: aggstack.StageClipping}}}
			c.ServerOpt = aggstack.OptSpec{Kind: aggstack.OptAdam}
		}), taco, fmnistGroups},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.base
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			s.Bind(fs)
			if err := fs.Parse(strings.Fields(tc.line)); err != nil {
				t.Fatal(err)
			}
			r, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			if r.Config.OnCheckpoint != nil {
				t.Fatal("Build set OnCheckpoint")
			}
			if !reflect.DeepEqual(r.Config, tc.want) {
				t.Fatalf("config\n got %+v\nwant %+v", r.Config, tc.want)
			}
			if !reflect.DeepEqual(r.Alg, tc.alg) {
				t.Fatalf("algorithm %s (%+v), want %s (%+v)", r.Alg.Name(), r.Alg, tc.alg.Name(), tc.alg)
			}
			if net, _ := dataset.Model(tc.data.ds); r.Net.Fingerprint() != net.Fingerprint() {
				t.Fatalf("model is not the %s architecture", tc.data.ds)
			}
			wantShards, wantTest := referenceShards(t, tc.data.ds, tc.data.kind, tc.data.clients, 0.5, tc.data.seed)
			if got, want := hashRows(r.Shards...), hashRows(wantShards...); got != want {
				t.Fatalf("shard rows hash %x, want %x", got, want)
			}
			if got, want := hashRows(r.Test), hashRows(wantTest); got != want {
				t.Fatalf("test rows hash %x, want %x", got, want)
			}
		})
	}
}

// TestBuildRejects: flag values Build cannot turn into a run are errors,
// not silently dropped knobs.
func TestBuildRejects(t *testing.T) {
	for _, mod := range []func(*Spec){
		func(s *Spec) { s.Partition = "dirichlet" },
		func(s *Spec) { s.Policy = "fifo" },
		func(s *Spec) { s.Hetero = "wild" },
		func(s *Spec) { s.Alg = "SGD" },
		func(s *Spec) { s.Freeloaders = s.Clients },
		func(s *Spec) { s.TopK = 0.1 },
		func(s *Spec) { s.AttackFrac = 0.5 },
		func(s *Spec) { s.Fault = "nope" },
		func(s *Spec) { s.AggStack = "nope" },
		func(s *Spec) { s.ServerOpt = "nope" },
		func(s *Spec) { s.Scale = "bogus" },
		func(s *Spec) { s.Scale = "" },
	} {
		s := serverDefaults
		mod(&s)
		if _, err := s.Build(); err == nil {
			t.Errorf("Build accepted %+v", s)
		}
	}
}

// TestFullScale pins the -scale spellings: small and full parse, anything
// else — including the empty string and other casings — is an error.
func TestFullScale(t *testing.T) {
	for scale, want := range map[string]bool{"small": false, "full": true} {
		got, err := Spec{Scale: scale}.FullScale()
		if err != nil || got != want {
			t.Errorf("FullScale(%q) = %v, %v; want %v, nil", scale, got, err, want)
		}
	}
	for _, scale := range []string{"", "bogus", "Full", "SMALL", "quick"} {
		if _, err := (Spec{Scale: scale}).FullScale(); err == nil {
			t.Errorf("FullScale(%q) accepted", scale)
		}
	}
}
