package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/simclock"
)

// workload is one benchmark input: a dataset profile, the config changes
// that make it stress its layer, and the accuracy its runs must reach.
// README.md records why each workload exists.
type workload struct {
	name, why string
	alg       string
	// target is the test accuracy the reference instance's runs must
	// reach; time_to_target_s and rounds_to_target are measured against
	// it. paper-fmnist uses the paper's profile target; the adult targets
	// sit below what their reference instance reaches.
	target  float64
	wire    bool
	profile func() experiments.Profile
	// tune adjusts the materialized config (fleet, policy, codec).
	tune func(cfg *fl.Config, net *nn.Network, clients int) error
}

// The profile names below are fixed and known to experiments.ProfileFor,
// so its error is dropped.

func adultProfile(clients, tile, rounds, steps int, phi float64) func() experiments.Profile {
	return func() experiments.Profile {
		p, _ := experiments.ProfileFor("adult", experiments.ScaleBench)
		p.Clients, p.FleetMultiplier = clients, tile
		p.Partition, p.DirPhi = experiments.PartDirichlet, phi
		p.Rounds, p.LocalSteps = rounds, steps
		return p
	}
}

var workloads = []workload{
	{
		name:   "paper-fmnist",
		why:    "the paper's setting: TACO on the fmnist CNN, 20 clients, full participation, sync; local nn training dominates and time to accuracy means what Fig. 4 means",
		alg:    "TACO",
		target: 0.72,
		profile: func() experiments.Profile {
			p, _ := experiments.ProfileFor("fmnist", experiments.ScaleQuick)
			return p
		},
	},
	{
		name:    "fleet-100k",
		why:     "100k tiled adult clients at 0.1% participation: fl setup and per-round O(fleet) bookkeeping dominate, training is small",
		alg:     "FedAvg",
		target:  0.70,
		profile: adultProfile(100, 1000, 100, 3, 0.3),
		tune: func(cfg *fl.Config, _ *nn.Network, _ int) error {
			cfg.ParticipationFraction = 0.001
			return nil
		},
	},
	{
		name:    "serve-10k",
		why:     "fl.Serve over loopback TCP with two in-process workers and 1000 dense updates a round: socket, marshal and decode dominate",
		alg:     "FedAvg",
		target:  0.55,
		wire:    true,
		profile: adultProfile(100, 100, 40, 1, 0.3),
		tune: func(cfg *fl.Config, _ *nn.Network, _ int) error {
			cfg.ParticipationFraction = 0.1
			cfg.Parallelism = 1
			return nil
		},
	},
	{
		name:    "async-1k-topk",
		why:     "async policy over an extreme device fleet with top-k 5% uplink: the event-driven arrival path and the only workload where the codec works",
		alg:     "FedAvg",
		target:  0.65,
		profile: adultProfile(1000, 1, 300, 3, 0.5),
		tune: func(cfg *fl.Config, net *nn.Network, clients int) error {
			cfg.Policy = fl.PolicyAsync
			cfg.AsyncBuffer = 10
			cfg.Compress = compress.Spec{Kind: compress.KindTopK, TopKFrac: 0.05}
			nominal := simclock.RoundSeconds(net.GradFlops(cfg.BatchSize), cfg.LocalSteps, simclock.Plain())
			var err error
			cfg.Devices, err = simclock.FleetByName("extreme", clients, nominal, cfg.Seed)
			return err
		},
	},
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// maxSpans bounds the local rounds one run can dispatch, which sizes the
// tracer's span array.
func maxSpans(cfg *fl.Config, clients int) int {
	if cfg.Policy == fl.PolicyAsync {
		return clients + cfg.Rounds*max(cfg.AsyncBuffer, 1)
	}
	cohort := clients
	if f := cfg.ParticipationFraction; f > 0 && f < 1 {
		cohort = max(int(f*float64(clients)+0.5), 1)
	}
	return cfg.Rounds * cohort
}

// captureDeltas is how many EndLocal deltas the traced run keeps for the
// codec and wire timings.
const captureDeltas = 64

// instance is one materialized input of a workload.
type instance struct {
	cfg     *fl.Config
	network *nn.Network
	shards  []*dataset.Dataset
	test    *dataset.Dataset
}

// build materializes the workload's input for seed and applies tune;
// materialized is called as soon as Profile.Materialize returns.
func (w *workload) build(seed uint64, materialized func()) (*instance, error) {
	prof := w.profile()
	cfg, shards, test, _, err := prof.Materialize(seed)
	if err != nil {
		return nil, err
	}
	materialized()
	network, err := prof.Model()
	if err != nil {
		return nil, err
	}
	if w.tune != nil {
		if err := w.tune(cfg, network, len(shards)); err != nil {
			return nil, err
		}
	}
	return &instance{cfg, network, shards, test}, nil
}

// outcome is one fl.Run or fl.Serve run with its boundary stamps.
type outcome struct {
	cfg       fl.Config
	res       *fl.Result
	rec       *recorder
	tr        *tracer
	wireUp    *connStats // worker side, traced wire runs only
	wireDown  *connStats // server side
	heapBytes uint64     // live heap at the final Aggregate return
	workers   int        // training goroutines
}

// runOnce materializes the workload for seed and runs it once, traced or
// not. Every run sets up from scratch, so each yields a setup sample.
func (w *workload) runOnce(seed uint64, trace bool) (*outcome, error) {
	o := &outcome{}
	// Start every run from a collected heap, so no run pays for the
	// previous one's garbage.
	runtime.GC()
	o.rec = newRecorder(w.profile().Rounds, func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		o.heapBytes = ms.HeapAlloc
	})
	in, err := w.build(seed, o.rec.materializeDone)
	if err != nil {
		return nil, err
	}
	cfg := in.cfg
	o.cfg = *cfg
	o.workers = runtime.GOMAXPROCS(0)
	if cfg.Parallelism > 0 {
		o.workers = cfg.Parallelism
	}
	if trace {
		o.tr = newTracer(len(in.shards), maxSpans(cfg, len(in.shards)), cfg.Rounds, captureDeltas, in.network.NumParams())
	}
	newAlg := func() (fl.Algorithm, error) {
		alg, err := experiments.NewAlgorithm(w.alg)
		if err != nil {
			return nil, err
		}
		return wrap(alg, o.rec, o.tr), nil
	}
	if w.wire {
		o.res, err = o.serve(*cfg, newAlg, in)
	} else {
		alg, aerr := newAlg()
		if aerr != nil {
			return nil, aerr
		}
		o.res, err = fl.Run(*cfg, alg, in.network, in.shards, in.test)
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// serveWorkers is the wire workloads' worker count; each trains on one
// goroutine, so the run never uses more training goroutines than this.
const serveWorkers = 2

// serve runs cfg through fl.Serve on loopback TCP with serveWorkers
// fl.RunWorker goroutines in this process.
func (o *outcome) serve(cfg fl.Config, newAlg func() (fl.Algorithm, error), in *instance) (*fl.Result, error) {
	tl, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer tl.Close()
	var ln net.Listener = tl
	if o.tr != nil {
		o.wireUp, o.wireDown = &connStats{}, &connStats{}
		ln = &countingListener{TCPListener: tl, st: o.wireDown}
	}
	o.workers = serveWorkers * max(cfg.Parallelism, 1)
	algs := make([]fl.Algorithm, serveWorkers+1)
	for i := range algs {
		if algs[i], err = newAlg(); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, serveWorkers)
	for i := 0; i < serveWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var conn net.Conn
			conn, errs[i] = net.Dial("tcp", tl.Addr().String())
			if errs[i] != nil {
				return
			}
			if o.wireUp != nil {
				conn = &countingConn{Conn: conn, st: o.wireUp}
			}
			errs[i] = fl.RunWorker(conn, i, serveWorkers, cfg, algs[i], in.network, in.shards, in.test.Name)
		}(i)
	}
	res, err := fl.Serve(ln, fl.ServeOptions{Workers: serveWorkers}, cfg, algs[serveWorkers], in.network, in.shards, in.test)
	tl.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("worker %d: %w", i, e)
		}
	}
	return res, nil
}

// bareRun runs the workload's config in process with no wrapper; for the
// wire workload it is the twin fl.Serve must match.
func (w *workload) bareRun(seed uint64) (*fl.Result, error) {
	in, err := w.build(seed, func() {})
	if err != nil {
		return nil, err
	}
	in.cfg.Parallelism = 0
	alg, err := experiments.NewAlgorithm(w.alg)
	if err != nil {
		return nil, err
	}
	return fl.Run(*in.cfg, alg, in.network, in.shards, in.test)
}
