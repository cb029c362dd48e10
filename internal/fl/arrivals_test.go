package fl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scanArrival is the linear scan the arrival queue replaced: the first
// live flight with the strictly smallest finish, i.e. the lowest ID
// among ties.
func scanArrival(pending []flight) int {
	id := -1
	for i := range pending {
		if pending[i].live && (id == -1 || pending[i].finish < pending[id].finish) {
			id = i
		}
	}
	return id
}

// TestArrivalQueueMatchesScan drives the queue with random pushes and
// pops over finish times drawn from a handful of values (so ties are the
// common case, +Inf included) and checks every pop against the linear
// scan, after a rebuild as well as after incremental pushes.
func TestArrivalQueueMatchesScan(t *testing.T) {
	r := rng.New(3)
	keys := []float64{0, 1, 1.5, 2, math.Inf(1)}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(40)
		pending := make([]flight, n)
		for i := range pending {
			pending[i] = flight{live: r.Float64() < 0.6, finish: keys[r.IntN(len(keys))]}
		}
		var q arrivalQueue
		q.rebuild(pending)
		for step := 0; step < 4*n; step++ {
			if r.Float64() < 0.4 {
				id := r.IntN(n)
				if pending[id].live {
					continue
				}
				pending[id] = flight{live: true, finish: keys[r.IntN(len(keys))]}
				q.push(pending, id)
				continue
			}
			want := scanArrival(pending)
			got := q.pop(pending)
			if got != want {
				t.Fatalf("trial %d step %d: queue picked %d, scan picks %d", trial, step, got, want)
			}
			if got >= 0 {
				pending[got].live = false
			}
		}
		for want := scanArrival(pending); want >= 0; want = scanArrival(pending) {
			if got := q.pop(pending); got != want {
				t.Fatalf("trial %d drain: queue picked %d, scan picks %d", trial, got, want)
			}
			pending[want].live = false
		}
		if got := q.pop(pending); got != -1 {
			t.Fatalf("trial %d: empty queue popped %d", trial, got)
		}
	}
}
