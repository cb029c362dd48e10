package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/fl"
)

// refSeed generates each workload's reference instance. How many rounds
// a run needs to reach its target accuracy is a property of the learning
// problem, and it varies across generated instances far more than any
// regression bound (fmnist rounds_to_target spans 8 to 23 over seeds
// 1-7), so the learning-outcome metrics come from this one instance
// while the timing and memory metrics pool both.
const refSeed = 1

// minRuns is the fewest runs a phase makes whatever its budget: two of
// each instance, so the same-seed hash check always compares two runs.
const minRuns = 4

// summary pools the runs of one phase (untraced or traced). Runs
// alternate between the instance generated from the workload seed
// (index 0) and the reference instance (index 1).
type summary struct {
	seed   uint64
	cfg    fl.Config
	runs   int
	hashes [2]uint64
	ran    [2]int

	setupS, materializeMs, flSetupMs      []float64
	setupAllocMB, flSetupAllocs, heapMB   []float64
	timeToTarget, roundsToTarget, roundMs []float64
	roundsPerS, updatesPerS               []float64
	steadyRounds                          int
	finalAcc                              float64
	uplinkBytes                           int64
	aggregated                            int
	attempted, failed                     int

	// Traced phase only.
	splits      []roundSplit
	roundAllocs []float64
	workers     int
	up, down    connTotals
	wireRounds  int
	wireUpdates int
	captured    [][]float64
	wire        bool
}

type connTotals struct{ writeBytes, reads, writes, block int64 }

func (t *connTotals) add(st *connStats) {
	t.writeBytes += st.writeBytes.Load()
	t.reads += st.reads.Load()
	t.writes += st.writes.Load()
	t.block += st.block.Load()
}

// measure runs the workload back to back until budget has passed (and at
// least minRuns times) and checks every run; a wire workload is also run
// once in process and must end on the same parameters.
func (w *workload) measure(seed uint64, budget time.Duration, trace bool) (*summary, error) {
	s := &summary{seed: seed, wire: w.wire}
	instances := [2]uint64{seed, refSeed}
	start := time.Now()
	for s.runs < minRuns || time.Since(start) < budget {
		k := s.runs % 2
		o, err := w.runOnce(instances[k], trace)
		if err != nil {
			return s, fmt.Errorf("%s run %d (seed %d): %w", w.name, s.runs, instances[k], err)
		}
		if err := s.add(w, o, k); err != nil {
			return s, fmt.Errorf("%s run %d (seed %d): %w", w.name, s.runs, instances[k], err)
		}
	}
	if w.wire && !trace {
		twin, err := w.bareRun(seed)
		if err != nil {
			return s, fmt.Errorf("%s in-process twin: %w", w.name, err)
		}
		if h := paramHash(twin.FinalParams); h != s.hashes[0] {
			return s, fmt.Errorf("%s: fl.Serve final parameters hash %016x, in-process fl.Run %016x", w.name, s.hashes[0], h)
		}
	}
	return s, nil
}

// add checks one run of instance k and folds it into the summary.
func (s *summary) add(w *workload, o *outcome, k int) error {
	run, rec, T := o.res.Run, o.rec, o.cfg.Rounds
	aggregated := 0
	for _, n := range rec.aggN {
		aggregated += n
	}
	dropped := run.TotalDroppedUpdates() + run.TotalDropped()
	s.attempted += aggregated + dropped
	s.failed += dropped
	h := paramHash(o.res.FinalParams)
	init := rec.init.Load()
	switch {
	case run.HaltReason != "":
		return fmt.Errorf("halted at round %d: %s", run.HaltRound, run.HaltReason)
	case len(run.Rounds) != T || len(rec.aggAt) != T:
		return fmt.Errorf("%d rounds recorded and %d aggregates, want %d", len(run.Rounds), len(rec.aggAt), T)
	case init == 0:
		return fmt.Errorf("no LocalInit observed")
	case dropped != 0:
		return fmt.Errorf("%d updates dispatched but not aggregated", dropped)
	case s.ran[k] > 0 && h != s.hashes[k]:
		return fmt.Errorf("final parameters hash %016x, first run %016x (same seed)", h, s.hashes[k])
	}
	s.hashes[k], s.cfg = h, o.cfg
	s.ran[k]++
	if k == 1 {
		reached, ok := run.RoundsToAccuracy(w.target)
		if !ok {
			return fmt.Errorf("accuracy never reached the target %.2f (best %.4f)", w.target, run.BestAccuracy())
		}
		s.timeToTarget = append(s.timeToTarget, seconds(rec.aggAt[reached-1]-init))
		s.roundsToTarget = append(s.roundsToTarget, float64(reached))
		s.finalAcc = run.FinalAccuracy()
	}
	s.setupS = append(s.setupS, seconds(init-rec.start))
	s.materializeMs = append(s.materializeMs, millis(rec.materialized-rec.start))
	s.flSetupMs = append(s.flSetupMs, millis(init-rec.materialized))
	s.setupAllocMB = append(s.setupAllocMB, float64(rec.initBytes-rec.startBytes)/(1<<20))
	s.flSetupAllocs = append(s.flSetupAllocs, float64(rec.initObjs-rec.matObjs))
	s.heapMB = append(s.heapMB, float64(o.heapBytes)/(1<<20))
	// Steady state is every round after the first: round 0 also pays for
	// the first dispatch wave and the pools' growth.
	updates := 0
	for r := 1; r < T; r++ {
		s.roundMs = append(s.roundMs, millis(rec.aggAt[r]-rec.aggAt[r-1]))
		updates += rec.aggN[r]
	}
	steady := seconds(rec.aggAt[T-1] - rec.aggAt[0])
	s.roundsPerS = append(s.roundsPerS, float64(T-1)/steady)
	s.updatesPerS = append(s.updatesPerS, float64(updates)/steady)
	s.steadyRounds += T - 1
	s.uplinkBytes += run.TotalUplinkBytes()
	s.aggregated += aggregated
	if tr := o.tr; tr != nil {
		if n := tr.overflow.Load(); n > 0 {
			return fmt.Errorf("tracer dropped %d spans", n)
		}
		s.splits = append(s.splits, tr.split()...)
		// Allocations per round over the second half of the run, after
		// every pool and ring has reached its high-water mark.
		k := T / 2
		s.roundAllocs = append(s.roundAllocs, float64(tr.aggAllocs[T-1]-tr.aggAllocs[k])/float64(T-1-k))
		s.workers = o.workers
		if o.wireUp != nil {
			s.up.add(o.wireUp)
			s.down.add(o.wireDown)
			s.wireRounds += T
			s.wireUpdates += aggregated
		}
		if s.captured == nil {
			s.captured = tr.captured[:min(int(tr.ncap.Load()), len(tr.captured))]
		}
	}
	s.runs++
	return nil
}

// endToEnd returns the metrics of the untraced runs.
func (s *summary) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":                 {median(s.setupS), "s"},
		"rounds_per_s":            {median(s.roundsPerS), "1/s"},
		"round_ms_p50":            {quantile(s.roundMs, 0.5), "ms"},
		"round_ms_p90":            {quantile(s.roundMs, 0.9), "ms"},
		"updates_per_s":           {median(s.updatesPerS), "1/s"},
		"time_to_target_s":        {median(s.timeToTarget), "s"},
		"rounds_to_target":        {median(s.roundsToTarget), "count"},
		"final_acc":               {s.finalAcc, "frac"},
		"uplink_bytes_per_update": {float64(s.uplinkBytes) / float64(s.aggregated), "B"},
		"setup_alloc_mb":          {median(s.setupAllocMB), "MB"},
		"retained_heap_mb":        {median(s.heapMB), "MB"},
	}
}

// print writes the untraced phase's sample counts and checks.
func (s *summary) print(w *workload) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("runs %d  steady rounds %d  round samples %d\n", s.runs, s.steadyRounds, len(s.roundMs))
	fmt.Printf("seed %d: %d runs, final params fnv1a %016x; reference seed %d: %d runs, fnv1a %016x\n",
		s.seed, s.ran[0], s.hashes[0], refSeed, s.ran[1], s.hashes[1])
	fmt.Printf("%-34s %14.6g %s\n", "failed_ops_frac", float64(s.failed)/float64(max(s.attempted, 1)), "frac")
	if w.wire {
		fmt.Println("check: fl.Serve matches its in-process fl.Run twin")
	}
	fmt.Printf("check: runs of one seed end on the same parameters; the reference runs reach accuracy %.2f\n", w.target)
}

// totals sums the traced rounds.
func (s *summary) totals() (t roundSplit, rounds int) {
	for _, r := range s.splits {
		t.wall += r.wall
		t.local += r.local
		t.busy += r.busy
		t.agg += r.agg
		t.gap += r.gap
		t.grad += r.grad
		t.gradN += r.gradN
		t.nSpans += r.nSpans
	}
	return t, len(s.splits)
}

// perLayer returns the traced phase's per-layer metrics; untraced is the
// same workload's untraced phase, for the tracing overhead.
func (s *summary) perLayer(untraced *summary) (map[string]metric, error) {
	t, rounds := s.totals()
	if rounds == 0 || t.nSpans == 0 {
		return nil, fmt.Errorf("traced run recorded no steady rounds")
	}
	if len(s.captured) == 0 {
		return nil, fmt.Errorf("traced run captured no deltas")
	}
	encUs, ratio, err := encodeCost(s.cfg.Compress, s.captured, s.seed)
	if err != nil {
		return nil, err
	}
	perRound := func(ns int64) float64 { return millis(ns) / float64(rounds) }
	m := map[string]metric{
		"experiments.materialize_ms":    {median(s.materializeMs), "ms"},
		"fl.setup_ms":                   {median(s.flSetupMs), "ms"},
		"fl.setup_allocs":               {median(s.flSetupAllocs), "count"},
		"fl.gap_ms_per_round":           {perRound(t.gap), "ms"},
		"fl.round_allocs":               {median(s.roundAllocs), "count"},
		"local.busy_ms_per_update":      {millis(t.busy) / float64(t.nSpans), "ms"},
		"local.cover_frac":              {float64(t.local) / float64(t.wall), "frac"},
		"local.parallel_eff":            {float64(t.busy) / (float64(t.local) * float64(s.workers)), "frac"},
		"alg.gradadjust_us_per_step":    {float64(t.grad) / 1e3 / float64(max(t.gradN, 1)), "us"},
		"alg.aggregate_ms_per_round":    {perRound(t.agg), "ms"},
		"compress.encode_us_per_update": {encUs, "us"},
		"compress.ratio":                {ratio, "x"},
		"trace.rounds_per_s_overhead":   {1 - median(s.roundsPerS)/median(untraced.roundsPerS), "frac"},
		"trace.unattributed_frac":       {1 - float64(t.local+t.agg+t.gap)/float64(t.wall), "frac"},
	}
	// The wire layers exist only on the wire workloads; in process they
	// read 0.
	var up, down, reads, writes, block, marshal float64
	if s.wire {
		r := float64(s.wireRounds)
		up = float64(s.up.writeBytes) / float64(s.wireUpdates)
		down = float64(s.down.writeBytes) / r
		reads = float64(s.up.reads+s.down.reads) / r
		writes = float64(s.up.writes+s.down.writes) / r
		block = millis(s.up.block+s.down.block) / r
		if marshal, err = marshalCost(s.cfg.Compress, s.captured, s.seed); err != nil {
			return nil, err
		}
	}
	m["wire.bytes_up_per_update"] = metric{up, "B"}
	m["wire.bytes_down_per_round"] = metric{down, "B"}
	m["wire.read_calls_per_round"] = metric{reads, "count"}
	m["wire.write_calls_per_round"] = metric{writes, "count"}
	m["wire.block_ms_per_round"] = metric{block, "ms"}
	m["wire.marshal_us_per_update"] = metric{marshal, "us"}
	return m, nil
}

// printAttribution prints each layer's share of the traced steady rounds'
// wall time. The first four rows partition it; the indented row is part
// of local training, shown for scale.
func (s *summary) printAttribution(name string) {
	t, rounds := s.totals()
	wall := float64(t.wall)
	row := func(label string, ns float64) {
		fmt.Printf("  %-52s %10.3f ms %7.2f%%\n", label, ns/1e6/float64(rounds), 100*ns/wall)
	}
	fmt.Printf("attribution of round wall time: %s, %d traced rounds, %d training goroutines\n", name, rounds, s.workers)
	row("local training (union of LocalInit..EndLocal)", float64(t.local))
	row("alg.aggregate", float64(t.agg))
	row("fl.gap (Aggregate return to next local training)", float64(t.gap))
	row("unattributed (collect, encode, socket, async select)", wall-float64(t.local+t.agg+t.gap))
	row("  of local: alg.gradadjust (busy / goroutines)", float64(t.grad)/float64(s.workers))
	fmt.Printf("  %-52s %10.3f ms\n", "total", wall/1e6/float64(rounds))
}

// paramHash is the FNV-1a hash of the parameters' little-endian bits, the
// same fingerprint flserver prints.
func paramHash(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
func millis(ns int64) float64  { return float64(ns) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
