package main

import (
	"encoding/json"
	"net"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fl"
)

// optionals reports which of fl's optional algorithm interfaces a value
// implements.
func optionals(a fl.Algorithm) [3]bool {
	_, ws := a.(fl.WireSafe)
	_, st := a.(fl.StatefulAlgorithm)
	_, f64 := a.(fl.RequiresF64Engine)
	return [3]bool{ws, st, f64}
}

// TestWrapKeepsOptionalInterfaces pins that both wrappers expose exactly
// the optional interfaces of the algorithm they wrap, for every
// algorithm the experiments construct, so wrapping never changes which
// code path fl takes.
func TestWrapKeepsOptionalInterfaces(t *testing.T) {
	names := append(experiments.AlgorithmNames(), "FedProx(TACO)", "Scaffold(TACO)")
	seen := map[[3]bool]bool{}
	for _, name := range names {
		alg, err := experiments.NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		want := optionals(alg)
		seen[want] = true
		rec := newRecorder(1, nil)
		for _, w := range []fl.Algorithm{wrap(alg, rec, nil), wrap(alg, rec, newTracer(1, 1, 1, 1, 1))} {
			if got := optionals(w); got != want {
				t.Errorf("%s wrapped as %T: optional interfaces %v, unwrapped %v", name, w, got, want)
			}
			if w.Name() != alg.Name() {
				t.Errorf("%s wrapped reports name %q", name, w.Name())
			}
		}
	}
	if len(seen) < 3 {
		t.Errorf("only %d interface combinations covered: %v", len(seen), seen)
	}
}

// stub is an algorithm whose hooks do nothing, so the wrappers' own cost
// is all that is measured.
type stub struct{ fl.Base }

func (stub) Name() string                         { return "stub" }
func (stub) Aggregate(*fl.ServerCtx, []fl.Update) {}

// TestTracerAllocatesNothing pins that recording a span, a GradAdjust,
// a captured delta, an Aggregate and a socket call allocates nothing,
// so fl.round_allocs counts only the program's own allocations.
func TestTracerAllocatesNothing(t *testing.T) {
	const clients, d = 4, 16
	tr := newTracer(clients, 1<<16, 1<<12, 2, d)
	rec := newRecorder(1<<12, nil)
	hooks := wrap(stub{}, rec, tr)
	untraced := wrap(stub{}, newRecorder(1<<12, nil), nil)
	w, out, delta := make([]float64, d), make([]float64, d), make([]float64, d)
	ctx := &fl.StepCtx{Client: 1}
	srv := &fl.ServerCtx{}
	updates := make([]fl.Update, 3)
	for _, a := range []fl.Algorithm{hooks, untraced} {
		allocs := testing.AllocsPerRun(200, func() {
			a.LocalInit(1, 0, w, out)
			a.BeginLocal(1, 0, out)
			a.GradAdjust(ctx)
			a.EndLocal(1, 0, delta)
			a.Aggregate(srv, updates)
		})
		if allocs != 0 {
			t.Errorf("%T: %v allocations per round of hooks, want 0", a, allocs)
		}
	}

	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	st := &connStats{}
	conn := &countingConn{Conn: client, st: st}
	buf := make([]byte, 8)
	go func() {
		b := make([]byte, 8)
		for {
			if _, err := server.Read(b); err != nil {
				return
			}
			if _, err := server.Write(b); err != nil {
				return
			}
		}
	}()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("countingConn: %v allocations per write+read, want 0", allocs)
	}
}

// TestTracedRunsMatchBareRuns pins, on shrunken copies of every
// workload, that a traced run — fl.Serve included, with its counting
// listener and connections — ends on the same parameters as an
// unwrapped in-process fl.Run of the same config.
func TestTracedRunsMatchBareRuns(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		full := w.profile
		w.profile = func() experiments.Profile {
			p := full()
			p.Clients, p.FleetMultiplier, p.Rounds = min(p.Clients, 20), min(p.FleetMultiplier, 2), 4
			return p
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := w.runOnce(5, true)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := w.bareRun(5)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := paramHash(o.res.FinalParams), paramHash(bare.FinalParams); got != want {
				t.Fatalf("traced run hash %016x, bare %016x", got, want)
			}
			if n := o.tr.next.Load(); n != int64(maxSpans(&o.cfg, len(o.tr.live))) && o.cfg.Policy != fl.PolicyAsync {
				t.Errorf("%d spans recorded, want one per dispatch", n)
			}
			if w.wire && o.wireUp.writeBytes.Load() == 0 {
				t.Error("worker connections counted no bytes")
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram pins that BENCHMARK.json names exactly
// the workloads and metrics the program reports, with the same units and
// reasons.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w, err := lookup(wl.Name)
		if err != nil {
			t.Error(err)
		} else if w.why != wl.Why {
			t.Errorf("%s: BENCHMARK.json says why %q, the program %q", wl.Name, wl.Why, w.why)
		}
	}
	e2e := (&summary{}).endToEnd()
	check := func(kind string, listed []struct{ Name, Unit string }, got map[string]metric) {
		if len(listed) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(got))
		}
		for _, m := range listed {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): program reports %+v", kind, m.Name, m.Unit, g)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	tr := &summary{splits: []roundSplit{{wall: 4, local: 1, busy: 1, nSpans: 1}}, workers: 1, captured: [][]float64{{1, 2}}}
	layers, err := tr.perLayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", spec.PerLayer, layers)
}
