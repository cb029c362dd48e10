// Package runspec is the one place run flags become a run. A Spec holds
// one field per run flag; Bind registers every flag on a FlagSet with
// the Spec's current values as defaults, so each binary states its
// defaults once as a struct literal; Build turns the parsed Spec into
// the config, algorithm, model, client shards and test set that fl.Run,
// fl.Serve and fl.RunWorker take. The data half goes through
// experiments.Profile.Materialize, so a CLI run and an experiment cell
// with the same settings are the same run by construction.
package runspec

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/simclock"
)

// Spec is one run, as flags. Zero-valued optional fields mean "off" or
// "the documented default", exactly as the flags they bind.
type Spec struct {
	Dataset         string
	Alg             string
	Clients         int
	Rounds          int
	LocalSteps      int
	Batch           int
	LR              float64
	GlobalLR        float64
	Partition       string
	Phi             float64
	Seed            uint64
	Scale           string
	Freeloaders     int
	Detect          bool
	WeightByData    bool
	Policy          string
	Deadline        float64
	Buffer          int
	Hetero          string
	DType           string
	Compress        string
	TopK            float64
	Attack          string
	AttackFrac      float64
	AttackScale     float64
	Fault           string
	AggStack        string
	ServerOpt       string
	CheckpointEvery int
	Quorum          float64
	Participation   float64
	Parallelism     int
}

// Bind registers every run flag on fs, each defaulting to s's current
// value and writing into s when parsed.
func (s *Spec) Bind(fs *flag.FlagSet) {
	algs := append(experiments.AlgorithmNames(), "FedProx(TACO)", "Scaffold(TACO)")
	fs.StringVar(&s.Dataset, "dataset", s.Dataset, "dataset: "+strings.Join(dataset.Names(), "|"))
	fs.StringVar(&s.Alg, "alg", s.Alg, "algorithm: "+strings.Join(algs, "|")+" (serving needs a wire-safe one: FedAvg|FedProx)")
	fs.IntVar(&s.Clients, "clients", s.Clients, "number of clients")
	fs.IntVar(&s.Rounds, "rounds", s.Rounds, "communication rounds T")
	fs.IntVar(&s.LocalSteps, "k", s.LocalSteps, "local steps per round K")
	fs.IntVar(&s.Batch, "batch", s.Batch, "mini-batch size s")
	fs.Float64Var(&s.LR, "lr", s.LR, "local learning rate ηl")
	fs.Float64Var(&s.GlobalLR, "glr", s.GlobalLR, "global learning rate ηg (0 = K·ηl)")
	fs.StringVar(&s.Partition, "partition", s.Partition, "partition: groups|dir|iid|natural")
	fs.Float64Var(&s.Phi, "phi", s.Phi, "Dirichlet concentration for -partition dir")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.StringVar(&s.Scale, "scale", s.Scale, "dataset scale: small|full")
	fs.IntVar(&s.Freeloaders, "freeloaders", s.Freeloaders, "replace the last N clients with freeloaders")
	fs.BoolVar(&s.Detect, "detect", s.Detect, "enable TACO freeloader detection")
	fs.BoolVar(&s.WeightByData, "weight-by-data", s.WeightByData, "aggregate with p_i = D_i/D")
	fs.StringVar(&s.Policy, "policy", s.Policy, "aggregation policy: "+strings.Join(fl.PolicyNames(), "|"))
	fs.Float64Var(&s.Deadline, "deadline", s.Deadline, "deadline policy: modeled seconds per round (0 = 1.5× the nominal modeled round)")
	fs.IntVar(&s.Buffer, "buffer", s.Buffer, "async policy: buffered updates per server step (0 = clients/4, min 1)")
	fs.StringVar(&s.Hetero, "hetero", s.Hetero, "device fleet: "+strings.Join(simclock.FleetNames(), "|"))
	fs.StringVar(&s.DType, "dtype", s.DType, "client compute precision: f64|f32 (f32 halves training memory and speeds up local steps; aggregation and metrics stay float64)")
	fs.StringVar(&s.Compress, "compress", s.Compress, "uplink codec: none|topk[:frac]|int8[:chunk] (default dense uploads)")
	fs.Float64Var(&s.TopK, "topk", s.TopK, "kept-coordinate fraction for -compress topk (0 = the codec's, default 0.01)")
	fs.StringVar(&s.Attack, "attack", s.Attack, "corrupt clients: kind[:frac[:scale]], kind one of "+strings.Join(adversary.KindNames(), "|"))
	fs.Float64Var(&s.AttackFrac, "attack-frac", s.AttackFrac, "fraction of clients corrupted by -attack (0 = the spec's, default 0.25)")
	fs.Float64Var(&s.AttackScale, "attack-scale", s.AttackScale, "magnitude of -attack (0 = the kind's default)")
	fs.StringVar(&s.Fault, "fault", s.Fault, "inject faults: comma-separated kind[:frac[:param]], kind one of "+strings.Join(fault.KindNames(), "|"))
	fs.StringVar(&s.AggStack, "aggstack", s.AggStack, `robust pre-aggregation stack: "|"-separated kind[:norm] stages, kind one of zeroing|clip (e.g. "zeroing|clip", "clip:5"; no norm = adaptive quantile bound)`)
	fs.StringVar(&s.ServerOpt, "serveropt", s.ServerOpt, "server optimizer: kind[:lr], kind one of fedsgd|adagrad|adam|yogi (default vanilla apply)")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", s.CheckpointEvery, "checkpoint the run every N rounds (0 = off; required for servercrash recovery beyond round 0)")
	fs.Float64Var(&s.Quorum, "quorum", s.Quorum, "sync/deadline: commit a round degraded when fewer than this fraction of dispatched updates arrive (0 = off)")
	fs.Float64Var(&s.Participation, "participation", s.Participation, "fraction of clients dispatched per round (0 = all)")
	fs.IntVar(&s.Parallelism, "parallelism", s.Parallelism, "local-training parallelism per process (0 = GOMAXPROCS)")
}

// FullScale parses -scale, which must be small or full. Build and
// flsim's -experiment path both read the flag through it, so neither
// runs an unknown scale as small.
func (s Spec) FullScale() (bool, error) {
	switch s.Scale {
	case "small":
		return false, nil
	case "full":
		return true, nil
	}
	return false, fmt.Errorf("unknown scale %q (want small|full)", s.Scale)
}

// Run is a built run: everything fl.Run takes.
type Run struct {
	Config fl.Config
	Alg    fl.Algorithm
	Net    *nn.Network
	Shards []*dataset.Dataset
	Test   *dataset.Dataset
}

// partitions maps the -partition spelling to the profile's kind.
var partitions = map[string]experiments.PartitionKind{
	"groups":  experiments.PartGroups,
	"dir":     experiments.PartDirichlet,
	"iid":     experiments.PartIID,
	"natural": experiments.PartNatural,
}

// Build materializes the run. Every process of a wire run calls it with
// the same flags; the handshake fingerprint rejects divergence.
func (s Spec) Build() (*Run, error) {
	kind, ok := partitions[s.Partition]
	if !ok {
		return nil, fmt.Errorf("unknown partition %q", s.Partition)
	}
	full, err := s.FullScale()
	if err != nil {
		return nil, err
	}
	scale := dataset.ScaleSmall
	if full {
		scale = dataset.ScaleFull
	}
	prof := experiments.Profile{
		Dataset:    s.Dataset,
		Clients:    s.Clients,
		Rounds:     s.Rounds,
		LocalSteps: s.LocalSteps,
		BatchSize:  s.Batch,
		LocalLR:    s.LR,
		Partition:  kind,
		DirPhi:     s.Phi,
		DataScale:  scale,
	}
	cfg, shards, test, _, err := prof.Materialize(s.Seed)
	if err != nil {
		return nil, err
	}
	net, err := prof.Model()
	if err != nil {
		return nil, err
	}
	alg, err := s.algorithm()
	if err != nil {
		return nil, err
	}
	if cfg.Policy, err = fl.ParsePolicy(s.Policy); err != nil {
		return nil, err
	}
	// The nominal modeled round anchors the default deadline and the
	// extreme fleet's availability period.
	nominal := simclock.RoundSeconds(net.GradFlops(s.Batch), s.LocalSteps, simclock.Plain())
	if cfg.Devices, err = simclock.FleetByName(s.Hetero, s.Clients, nominal, s.Seed); err != nil {
		return nil, err
	}
	cfg.GlobalLR = s.GlobalLR
	cfg.DType = s.DType
	cfg.WeightByData = s.WeightByData
	cfg.ParticipationFraction = s.Participation
	cfg.Parallelism = s.Parallelism
	// Knobs are forwarded unconditionally so Config.Validate rejects
	// contradictory invocations (e.g. -policy sync -deadline 5, -quorum
	// without -fault) instead of silently dropping them.
	cfg.RoundDeadlineSec = s.Deadline
	cfg.AsyncBuffer = s.Buffer
	cfg.CheckpointEvery = s.CheckpointEvery
	cfg.Quorum = s.Quorum
	if cfg.Policy == fl.PolicyDeadline && cfg.RoundDeadlineSec == 0 {
		cfg.RoundDeadlineSec = 1.5 * nominal
	}
	if cfg.Policy == fl.PolicyAsync && cfg.AsyncBuffer == 0 {
		cfg.AsyncBuffer = max(s.Clients/4, 1)
	}
	if s.Freeloaders > 0 {
		if s.Freeloaders >= s.Clients {
			return nil, fmt.Errorf("need at least one honest client")
		}
		for id := s.Clients - s.Freeloaders; id < s.Clients; id++ {
			cfg.Freeloaders = append(cfg.Freeloaders, id)
		}
	}
	if cfg.Compress, err = buildCompress(s.Compress, s.TopK); err != nil {
		return nil, err
	}
	attack, err := buildAttack(s.Attack, s.AttackFrac, s.AttackScale)
	if err != nil {
		return nil, err
	}
	if attack != nil {
		cfg.Adversaries = []adversary.Spec{*attack}
	}
	if cfg.Faults, err = fault.ParseFaults(s.Fault); err != nil {
		return nil, err
	}
	if cfg.AggStack, err = aggstack.ParseStack(s.AggStack); err != nil {
		return nil, err
	}
	if cfg.ServerOpt, err = aggstack.ParseServerOpt(s.ServerOpt); err != nil {
		return nil, err
	}
	return &Run{Config: *cfg, Alg: alg, Net: net, Shards: shards, Test: test}, nil
}

// algorithm builds the named algorithm; -detect arms TACO's freeloader
// inspection.
func (s Spec) algorithm() (fl.Algorithm, error) {
	if s.Alg == "TACO" && s.Detect {
		cfg := core.Recommended()
		cfg.DetectFreeloaders = true
		return core.New(cfg), nil
	}
	return experiments.NewAlgorithm(s.Alg)
}

// buildCompress turns the -compress/-topk flags into a codec spec. The
// -compress value uses compress.ParseSpec syntax ("kind[:param]"); the
// dedicated -topk flag, when positive, overrides the inline fraction.
// Returns the zero (dense-transport) spec when no codec was requested.
func buildCompress(spec string, topkFrac float64) (compress.Spec, error) {
	s, err := compress.ParseSpec(spec)
	if err != nil {
		return compress.Spec{}, err
	}
	if topkFrac != 0 {
		if s.Kind != compress.KindTopK {
			return compress.Spec{}, fmt.Errorf("-topk needs -compress topk")
		}
		s.TopKFrac = topkFrac
	}
	if err := s.Validate(); err != nil {
		return compress.Spec{}, err
	}
	return s, nil
}

// buildAttack turns the -attack/-attack-frac/-attack-scale flags into an
// adversary spec. The -attack value uses adversary.ParseAttack syntax
// ("kind[:frac[:scale]]"); the dedicated flags, when positive, override
// the inline parts. Returns nil when no attack was requested.
func buildAttack(attack string, frac, scale float64) (*adversary.Spec, error) {
	if attack == "" {
		if frac != 0 || scale != 0 {
			return nil, fmt.Errorf("-attack-frac/-attack-scale need -attack")
		}
		return nil, nil
	}
	spec, err := adversary.ParseAttack(attack)
	if err != nil {
		return nil, err
	}
	if frac != 0 {
		spec.Clients = nil
		spec.Frac = frac
	}
	if scale != 0 {
		spec.Scale = scale
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}
