package baselines

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/aggstack"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/vecmath"
)

func setup(t *testing.T, clients int) (*nn.Network, []*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train, test, err := dataset.Standard("adult", dataset.ScaleSmall, 13)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Dirichlet(train, clients, 0.5, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return net, part.Shards(train), test
}

func cfg() fl.Config {
	return fl.Config{
		Rounds:     8,
		LocalSteps: 5,
		BatchSize:  16,
		LocalLR:    0.03,
		Seed:       17,
	}
}

func TestNamesAndCosts(t *testing.T) {
	tests := []struct {
		alg        fl.Algorithm
		name       string
		wantAuxGtZ bool
	}{
		{NewFedAvg(), "FedAvg", false},
		{NewFedProx(0.1), "FedProx", true},
		{NewFoolsGold(), "FG", false},
		{NewScaffold(1), "Scaffold", true},
		{NewSTEM(0.2), "STEM", true},
		{NewFedACG(0.001), "FedACG", true},
	}
	for _, tt := range tests {
		if got := tt.alg.Name(); got != tt.name {
			t.Fatalf("Name = %q, want %q", got, tt.name)
		}
		costs := tt.alg.Costs()
		if costs.GradEvalsPerStep != 1 {
			t.Fatalf("%s GradEvalsPerStep = %v", tt.name, costs.GradEvalsPerStep)
		}
		if tt.wantAuxGtZ && costs.AuxPerStep <= 0 {
			t.Fatalf("%s must report auxiliary per-step cost", tt.name)
		}
		if !tt.wantAuxGtZ && costs.AuxPerStep != 0 {
			t.Fatalf("%s must report zero auxiliary cost", tt.name)
		}
	}
}

// TestTable1CostOrdering checks the modeled Table I ordering:
// FedAvg = FG < Scaffold < FedProx ≈ FedACG < STEM.
func TestTable1CostOrdering(t *testing.T) {
	gradFlops := int64(1_000_000)
	sec := func(a fl.Algorithm) float64 {
		return simclock.Per100Steps(gradFlops, a.Costs())
	}
	fedavg := sec(NewFedAvg())
	fg := sec(NewFoolsGold())
	scaffold := sec(NewScaffold(1))
	fedprox := sec(NewFedProx(0.1))
	fedacg := sec(NewFedACG(0.001))
	stem := sec(NewSTEM(0.2))
	if fedavg != fg {
		t.Fatalf("FedAvg %v != FG %v", fedavg, fg)
	}
	if !(fedavg < scaffold && scaffold < fedprox && fedprox <= fedacg && fedacg < stem) {
		t.Fatalf("ordering violated: FedAvg %v Scaffold %v FedProx %v FedACG %v STEM %v",
			fedavg, scaffold, fedprox, fedacg, stem)
	}
	// Calibration targets from the paper's Table I (FMNIST column).
	if pct := 100 * (stem - fedavg) / fedavg; math.Abs(pct-41) > 3 {
		t.Fatalf("STEM overhead %.1f%%, want ≈41%%", pct)
	}
	if pct := 100 * (fedprox - fedavg) / fedavg; math.Abs(pct-22) > 3 {
		t.Fatalf("FedProx overhead %.1f%%, want ≈22%%", pct)
	}
}

func TestFedProxGradAdjust(t *testing.T) {
	alg := NewFedProx(0.5)
	grad := []float64{0, 0}
	ctx := &fl.StepCtx{
		W:    []float64{1, 3},
		W0:   []float64{0, 1},
		Grad: grad,
	}
	alg.GradAdjust(ctx)
	if grad[0] != 0.5 || grad[1] != 1 {
		t.Fatalf("prox gradient = %v, want [0.5 1]", grad)
	}
}

func TestFedACGLocalInitLookahead(t *testing.T) {
	alg := NewFedACG(0.001)
	alg.Setup(&fl.Env{NumClients: 2, NumParams: 2,
		Cfg: fl.Config{Rounds: 1, LocalSteps: 1, BatchSize: 1, LocalLR: 0.1, Seed: 1}})
	w := []float64{1, 2}
	out := make([]float64, 2)
	alg.LocalInit(0, 0, w, out)
	// Momentum starts at zero, so the lookahead equals w.
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("LocalInit with zero momentum = %v, want w", out)
	}
}

func TestScaffoldControlVariateUpdate(t *testing.T) {
	alg := NewScaffold(1)
	alg.Setup(&fl.Env{NumClients: 2, NumParams: 2,
		Cfg: fl.Config{Rounds: 1, LocalSteps: 2, BatchSize: 1, LocalLR: 0.5, Seed: 1}})
	// c and c_i start at zero, so the round's correction is zero.
	alg.BeginLocal(0, 0, nil)
	ctx := &fl.StepCtx{Client: 0, Grad: []float64{1, 1}}
	alg.GradAdjust(ctx)
	coeff, corr := ctx.Correction()
	if coeff != 1 || corr[0] != 0 || corr[1] != 0 {
		t.Fatalf("initial correction must be zero, got %v·%v", coeff, corr)
	}
	// After a local round with delta d: c_0 = 0 − 0 + d/(K·ηl) = d.
	alg.EndLocal(0, 0, []float64{2, 0})
	alg.BeginLocal(0, 1, nil)
	ctx = &fl.StepCtx{Client: 0, Grad: []float64{0, 0}}
	alg.GradAdjust(ctx)
	// Correction is α(c − c_0) = 1·(0 − [2,0]/(2·0.5)) = [−2, 0],
	// registered for the engine's fused corrected step.
	coeff, corr = ctx.Correction()
	if coeff != 1 || corr[0] != -2 || corr[1] != 0 {
		t.Fatalf("correction = %v·%v, want 1·[-2 0]", coeff, corr)
	}
}

func TestFoolsGoldDownweightsOutlier(t *testing.T) {
	alg := NewFoolsGold()
	env := &fl.Env{NumClients: 3, NumParams: 2,
		Cfg: fl.Config{Rounds: 1, LocalSteps: 1, BatchSize: 1, LocalLR: 1, Seed: 1}}
	alg.Setup(env)
	w := []float64{0, 0}
	server := &fl.ServerCtx{W: w, WPrev: []float64{0, 0}, Env: env, Active: []bool{true, true, true}}
	updates := []fl.Update{
		{Client: 0, Delta: []float64{1, 0}, NumSamples: 1},
		{Client: 1, Delta: []float64{1, 0}, NumSamples: 1},
		{Client: 2, Delta: []float64{-1, 0}, NumSamples: 1}, // outlier
	}
	alg.Aggregate(server, updates)
	// The aligned clients dominate: the model moves in −x (descent on the
	// aligned deltas' direction), and by more than the plain mean (1/3).
	if w[0] >= -1.0/3 {
		t.Fatalf("w after FG aggregation = %v; outlier not down-weighted", w)
	}
}

func TestAllBaselinesLearnAndAreStable(t *testing.T) {
	net, shards, test := setup(t, 6)
	algs := []fl.Algorithm{
		NewFedAvg(), NewFedProx(0.1), NewFoolsGold(),
		NewScaffold(1), NewSTEM(0.2), NewFedACG(0.001),
	}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			res, err := fl.Run(cfg(), alg, net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Diverged {
				t.Fatal("diverged on the easy setup")
			}
			if !vecmath.AllFinite(res.FinalParams) {
				t.Fatal("non-finite parameters")
			}
			if res.Run.FinalAccuracy() < 0.55 {
				t.Fatalf("final accuracy %.4f too low", res.Run.FinalAccuracy())
			}
		})
	}
}

// TestStackComposesOverBaselines pins the aggregation stack's rule
// agnosticism: zeroing|clip + FedAdam must compose over stateful and
// defense-bearing inner rules (Scaffold's control variates, FoolsGold's
// similarity memory) exactly as over FedAvg — the run stays stable under
// a scaling attacker, the stack visibly engages (clipped updates
// recorded), and the composed name surfaces both layers.
func TestStackComposesOverBaselines(t *testing.T) {
	net, shards, test := setup(t, 6)
	stack, err := aggstack.ParseStack("zeroing|clip")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := aggstack.ParseServerOpt("adam:0.1")
	if err != nil {
		t.Fatal(err)
	}
	algs := []func() fl.Algorithm{
		func() fl.Algorithm { return NewScaffold(1) },
		func() fl.Algorithm { return NewFoolsGold() },
	}
	for _, mk := range algs {
		bare := mk()
		t.Run(bare.Name(), func(t *testing.T) {
			c := cfg()
			c.AggStack = stack
			c.ServerOpt = opt
			c.Adversaries = []adversary.Spec{{Kind: adversary.KindScale, Clients: []int{1}, Scale: 20}}
			res, err := fl.Run(c, mk(), net, shards, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run.Diverged {
				t.Fatal("stacked run diverged under the scaling attack")
			}
			if !vecmath.AllFinite(res.FinalParams) {
				t.Fatal("non-finite parameters")
			}
			want := bare.Name() + "+zeroing|clip+adam:0.1"
			if res.Run.Algorithm != want {
				t.Fatalf("composed name = %q, want %q", res.Run.Algorithm, want)
			}
			if res.Run.TotalClippedUpdates() == 0 && res.Run.TotalZeroedUpdates() == 0 {
				t.Fatal("stack never engaged: no update was zeroed or clipped")
			}
		})
	}
}

// TestScaffoldOvercorrectionDegrades reproduces the paper's Section III
// finding in miniature: on a drift-heavy hard dataset, Scaffold's uniform
// full-strength correction (α = 1) underperforms or destabilizes relative
// to FedAvg.
func TestScaffoldOvercorrectionDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on svhn")
	}
	train, test, err := dataset.Standard("svhn", dataset.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, _, err := partition.Groups(train, partition.PaperGroups(20), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	net, err := dataset.Model("svhn")
	if err != nil {
		t.Fatal(err)
	}
	hard := fl.Config{Rounds: 15, LocalSteps: 15, BatchSize: 24, LocalLR: 0.08, Seed: 1}
	shards := part.Shards(train)
	fedavg, err := fl.Run(hard, NewFedAvg(), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	scaffold, err := fl.Run(hard, NewScaffold(1), net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	if !scaffold.Run.Diverged && scaffold.Run.FinalAccuracy() >= fedavg.Run.FinalAccuracy() {
		t.Fatalf("over-correction shape missing: Scaffold %.4f >= FedAvg %.4f and no divergence",
			scaffold.Run.FinalAccuracy(), fedavg.Run.FinalAccuracy())
	}
}
