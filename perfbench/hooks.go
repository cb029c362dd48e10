package main

import (
	"io"
	"sync/atomic"

	"repro/internal/fl"
)

// boundary is the only wrapper the untraced (end-to-end) runs install:
// it stamps the first LocalInit of the run and every Aggregate return
// into the shared recorder and forwards every other hook untouched.
type boundary struct {
	fl.Algorithm
	rec *recorder
}

func (b *boundary) LocalInit(client, round int, w, out []float64) {
	b.rec.firstInit()
	b.Algorithm.LocalInit(client, round, w, out)
}

func (b *boundary) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	b.Algorithm.Aggregate(s, updates)
	b.rec.aggregated(len(updates))
}

// traced is the wrapper of the traced run: every hook is timed into the
// tracer's preallocated arrays (tracer.go), so a call allocates nothing.
type traced struct {
	fl.Algorithm
	rec *recorder
	tr  *tracer
}

func (t *traced) LocalInit(client, round int, w, out []float64) {
	t.rec.firstInit()
	t.tr.begin(client)
	t.Algorithm.LocalInit(client, round, w, out)
}

func (t *traced) GradAdjust(ctx *fl.StepCtx) {
	t0 := now()
	t.Algorithm.GradAdjust(ctx)
	t.tr.gradAdjust(ctx.Client, now()-t0)
}

func (t *traced) EndLocal(client, round int, delta []float64) {
	t.tr.capture(delta)
	t.Algorithm.EndLocal(client, round, delta)
	t.tr.end(client)
}

func (t *traced) Aggregate(s *fl.ServerCtx, updates []fl.Update) {
	t.tr.aggStart()
	t.Algorithm.Aggregate(s, updates)
	// The tracer stamps first: the recorder's final call forces a GC,
	// which must not land inside the last round's Aggregate span.
	t.tr.aggEnd()
	t.rec.aggregated(len(updates))
}

// The optional interfaces, restated under names that differ from their
// methods': an embedded fl.WireSafe would be a field named WireSafe,
// which hides the promoted WireSafe method. stateful also leaves out the
// fl.Algorithm that fl.StatefulAlgorithm embeds, which would collide
// with the wrapper's own.
type (
	wireSafe interface{ WireSafe() }
	stateful interface {
		SaveState(w io.Writer) error
		LoadState(r io.Reader) error
	}
	needsF64 interface{ RequiresF64Engine() }
)

// preserve returns w extended with every optional interface inner
// implements (fl.WireSafe, fl.StatefulAlgorithm, fl.RequiresF64Engine),
// forwarding their methods to inner. fl picks code paths by asserting
// these interfaces, so a wrapper that dropped one would benchmark a
// different program: Serve would reject the algorithm, a checkpoint
// would skip its state, an f32 run would not refuse it.
func preserve(inner, w fl.Algorithm) fl.Algorithm {
	ws, isWS := inner.(fl.WireSafe)
	st, isST := inner.(fl.StatefulAlgorithm)
	f64, isF64 := inner.(fl.RequiresF64Engine)
	switch {
	case isWS && isST && isF64:
		return struct {
			fl.Algorithm
			wireSafe
			stateful
			needsF64
		}{w, ws, st, f64}
	case isWS && isST:
		return struct {
			fl.Algorithm
			wireSafe
			stateful
		}{w, ws, st}
	case isWS && isF64:
		return struct {
			fl.Algorithm
			wireSafe
			needsF64
		}{w, ws, f64}
	case isST && isF64:
		return struct {
			fl.Algorithm
			stateful
			needsF64
		}{w, st, f64}
	case isWS:
		return struct {
			fl.Algorithm
			wireSafe
		}{w, ws}
	case isST:
		return struct {
			fl.Algorithm
			stateful
		}{w, st}
	case isF64:
		return struct {
			fl.Algorithm
			needsF64
		}{w, f64}
	default:
		return w
	}
}

// wrap installs the boundary wrapper (tr == nil) or the traced one.
func wrap(alg fl.Algorithm, rec *recorder, tr *tracer) fl.Algorithm {
	if tr == nil {
		return preserve(alg, &boundary{Algorithm: alg, rec: rec})
	}
	return preserve(alg, &traced{Algorithm: alg, rec: rec, tr: tr})
}

// recorder holds the boundary stamps of one run, shared by the server's
// and the workers' wrappers. Aggregate runs on the scheduler goroutine
// only, so its arrays need no synchronization; the first LocalInit can
// race between training goroutines and is settled by a CAS.
type recorder struct {
	start, materialized int64
	init                atomic.Int64
	allocs              *allocCounter
	// Cumulative heap allocations at start (before Materialize), after
	// Materialize, and at the first LocalInit.
	startBytes, startObjs, matObjs, initBytes, initObjs uint64

	aggAt  []int64
	aggN   []int
	rounds int
	// atEnd runs once, at the final Aggregate return, after its stamp.
	atEnd func()
}

func newRecorder(rounds int, atEnd func()) *recorder {
	r := &recorder{
		allocs: newAllocCounter(),
		aggAt:  make([]int64, 0, rounds),
		aggN:   make([]int, 0, rounds),
		rounds: rounds,
		atEnd:  atEnd,
	}
	r.startBytes, r.startObjs = r.allocs.read()
	r.start = now()
	return r
}

// materializeDone stamps the end of Profile.Materialize.
func (r *recorder) materializeDone() {
	r.materialized = now()
	_, r.matObjs = r.allocs.read()
}

func (r *recorder) firstInit() {
	if r.init.Load() != 0 {
		return
	}
	t := now()
	if r.init.CompareAndSwap(0, t) {
		r.initBytes, r.initObjs = r.allocs.read()
	}
}

func (r *recorder) aggregated(n int) {
	if len(r.aggAt) == cap(r.aggAt) {
		return // more aggregates than rounds: the run check reports it
	}
	r.aggAt = append(r.aggAt, now())
	r.aggN = append(r.aggN, n)
	if len(r.aggAt) == r.rounds && r.atEnd != nil {
		r.atEnd()
	}
}
