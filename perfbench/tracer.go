package main

import (
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

var clockBase = time.Now()

// now is monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// allocCounter reads the runtime's cumulative heap-allocation counters
// without stopping the world. Each goroutine that reads needs its own.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:bytes"
	c.s[1].Name = "/gc/heap/allocs:objects"
	return c
}

func (c *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64(), c.s[1].Value.Uint64()
}

// span is one client's local round, LocalInit to EndLocal, with the time
// its GradAdjust calls took.
type span struct {
	start, end int64
	gradNs     int64
	gradCalls  int64
}

// tracer keeps every span in arrays sized before the run, so recording
// allocates nothing and the allocation counter read at each Aggregate
// return sees only the program's own allocations. A client trains at
// most one local round at a time, so live[client] names its live span
// and only the goroutine training it touches that entry.
type tracer struct {
	spans    []span
	next     atomic.Int64
	live     []int32
	overflow atomic.Int64

	aggS, aggE []int64
	aggAllocs  []uint64
	allocs     *allocCounter

	// captured holds the first deltas seen at EndLocal, re-encoded and
	// re-marshalled after the run (layers.go).
	captured [][]float64
	ncap     atomic.Int64
}

func newTracer(clients, maxSpans, rounds, capture, dim int) *tracer {
	t := &tracer{
		spans:     make([]span, maxSpans),
		live:      make([]int32, clients),
		aggS:      make([]int64, 0, rounds),
		aggE:      make([]int64, 0, rounds),
		aggAllocs: make([]uint64, 0, rounds),
		allocs:    newAllocCounter(),
		captured:  make([][]float64, capture),
	}
	for i := range t.captured {
		t.captured[i] = make([]float64, dim)
	}
	for i := range t.live {
		t.live[i] = -1
	}
	return t
}

func (t *tracer) liveSpan(client int) *span {
	if i := t.live[client]; i >= 0 {
		return &t.spans[i]
	}
	return nil
}

func (t *tracer) begin(client int) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.overflow.Add(1)
		t.live[client] = -1
		return
	}
	t.live[client] = int32(i)
	t.spans[i] = span{start: now()}
}

func (t *tracer) gradAdjust(client int, ns int64) {
	if sp := t.liveSpan(client); sp != nil {
		sp.gradNs += ns
		sp.gradCalls++
	}
}

func (t *tracer) end(client int) {
	if sp := t.liveSpan(client); sp != nil {
		sp.end = now()
	}
	t.live[client] = -1
}

func (t *tracer) capture(delta []float64) {
	if t.ncap.Load() >= int64(len(t.captured)) {
		return
	}
	if i := t.ncap.Add(1) - 1; i < int64(len(t.captured)) {
		copy(t.captured[i], delta)
	}
}

// aggStart and aggEnd run on the scheduler goroutine only.
func (t *tracer) aggStart() {
	if len(t.aggS) < cap(t.aggS) {
		t.aggS = append(t.aggS, now())
	}
}

func (t *tracer) aggEnd() {
	if len(t.aggE) < cap(t.aggE) {
		t.aggE = append(t.aggE, now())
		_, objs := t.allocs.read()
		t.aggAllocs = append(t.aggAllocs, objs)
	}
}

// roundSplit is one steady round's wall time split by what was running.
type roundSplit struct {
	wall   int64 // previous Aggregate return to this one
	local  int64 // union of local-training spans
	busy   int64 // sum of local-training spans (parallel work)
	agg    int64 // Aggregate
	gap    int64 // previous Aggregate return to the first local training after it
	grad   int64 // GradAdjust time
	gradN  int64
	nSpans int64
}

// split attributes the run's steady rounds, every round after the first.
// Spans are clipped to each round's window, so a span crossing a round
// boundary is charged to both rounds by the part it spent in each.
func (t *tracer) split() []roundSplit {
	n := min(len(t.aggS), len(t.aggE))
	used := int(min(t.next.Load(), int64(len(t.spans))))
	spans := append([]span(nil), t.spans[:used]...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := make([]roundSplit, 0, max(n-1, 0))
	for r := 1; r < n; r++ {
		lo, hi := t.aggE[r-1], t.aggE[r]
		rs := roundSplit{wall: hi - lo, agg: t.aggE[r] - t.aggS[r]}
		first := hi
		var curS, curE int64 = -1, -1
		for _, sp := range spans {
			if sp.start >= hi {
				break
			}
			s, e := max(sp.start, lo), min(sp.end, hi)
			if sp.end == 0 || e <= s {
				continue
			}
			if s < first {
				first = s
			}
			rs.busy += e - s
			rs.nSpans++
			if sp.start >= lo {
				rs.grad += sp.gradNs
				rs.gradN += sp.gradCalls
			}
			if s > curE {
				if curE > curS {
					rs.local += curE - curS
				}
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		if curE > curS {
			rs.local += curE - curS
		}
		rs.gap = first - lo
		out = append(out, rs)
	}
	return out
}
