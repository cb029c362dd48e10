package fl

import (
	"testing"

	"repro/internal/simclock"
)

// lossyExec is the in-process slot pool, except that settle marks the
// update at position lose as lost, the way the wire path marks a
// dispatch whose worker died with failover exhausted.
type lossyExec struct {
	*slotPool
	lose int
}

func (e lossyExec) settle(updates []Update, measured []float64) error {
	if err := e.slotPool.settle(updates, measured); err != nil {
		return err
	}
	updates[e.lose].ring.lost = true
	return nil
}

// TestSyncWaitCoversLostUpdates pins the modeled wait of a fault-free sync
// round that loses an update: the server dispatched to every participant
// and waited for the slowest honest one, whether or not its update
// arrived. Client 0, the slowest device, loses its update from the first
// cohort position, so a wait computed over the compacted cohort would
// miss it.
func TestSyncWaitCoversLostUpdates(t *testing.T) {
	net, shards, test := poolSetup(t, 4)
	cfg := Config{Rounds: 2, LocalSteps: 2, BatchSize: 8, LocalLR: 0.05, Seed: 5, EvalEvery: 1000}
	cfg.Devices = simclock.UniformFleet(4)
	cfg.Devices[0].SpeedFactor = 3
	s, err := newScheduler(cfg, goldenFedAvg{}, net, shards, test)
	if err != nil {
		t.Fatal(err)
	}
	defer s.pool.close()
	s.exec = lossyExec{slotPool: s.pool, lose: 0}

	var want float64
	for id := range shards {
		want = max(want, s.finishRel(id, s.now))
	}
	if halt, err := s.step(0); err != nil || halt {
		t.Fatalf("round 0: halt=%v err=%v", halt, err)
	}
	rec := s.run.Rounds[0]
	if rec.DroppedUpdates != 1 {
		t.Fatalf("round dropped %d updates, want the 1 lost", rec.DroppedUpdates)
	}
	if rec.SlowestModeledSec != want {
		t.Fatalf("SlowestModeledSec = %v, want %v (client 0's finish)", rec.SlowestModeledSec, want)
	}
}
