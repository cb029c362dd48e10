package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchjson"
)

func TestPinned(t *testing.T) {
	prefixes := []string{"BenchmarkCodec", "BenchmarkGEMM"}
	for name, want := range map[string]bool{
		"BenchmarkCodec/topk:0.01":   true,
		"BenchmarkGEMM/square64":     true,
		"BenchmarkFig2RoundAccuracy": false,
		"":                           false,
	} {
		if got := pinned(name, prefixes); got != want {
			t.Fatalf("pinned(%q) = %v, want %v", name, got, want)
		}
	}
	if pinned("BenchmarkAnything", []string{""}) {
		t.Fatal("empty prefix must match nothing")
	}
}

func TestCompareGates(t *testing.T) {
	g := gate{threshold: 0.25, minNs: 1000, allocSlack: 16}
	prefixes := []string{"BenchmarkGEMM", "BenchmarkAXPY"}
	baseline := map[string]benchjson.Record{
		"BenchmarkGEMM/square64": {Name: "BenchmarkGEMM/square64", NsPerOp: 100000, AllocsPerOp: 0},
		"BenchmarkAXPY":          {Name: "BenchmarkAXPY", NsPerOp: 2000, AllocsPerOp: 2},
		"BenchmarkGEMM/fast":     {Name: "BenchmarkGEMM/fast", NsPerOp: 500, AllocsPerOp: 0},
		"BenchmarkGEMM/gone":     {Name: "BenchmarkGEMM/gone", NsPerOp: 100000},
	}
	fresh := map[string]benchjson.Record{
		// Within both gates.
		"BenchmarkGEMM/square64": {Name: "BenchmarkGEMM/square64", NsPerOp: 110000, AllocsPerOp: 8},
		// Timing fine, but 30 new allocs/op blows the slack.
		"BenchmarkAXPY": {Name: "BenchmarkAXPY", NsPerOp: 2100, AllocsPerOp: 32},
		// Below min-ns: timing gate skipped even at 10x slower, but the
		// allocation gate still fires.
		"BenchmarkGEMM/fast": {Name: "BenchmarkGEMM/fast", NsPerOp: 5000, AllocsPerOp: 40},
		// Not pinned: never compared.
		"BenchmarkFig2RoundAccuracy": {Name: "BenchmarkFig2RoundAccuracy", NsPerOp: 1},
		// Not in baseline: reported as a new benchmark, passes.
		"BenchmarkGEMM/new": {Name: "BenchmarkGEMM/new", NsPerOp: 100000},
	}
	lines := compare(baseline, fresh, prefixes, g)
	verdicts := map[string]bool{}
	for _, l := range lines {
		verdicts[l.name] = l.regressed
	}
	want := map[string]bool{
		"BenchmarkGEMM/square64": false,
		"BenchmarkAXPY":          true,
		"BenchmarkGEMM/fast":     true,
		"BenchmarkGEMM/new":      false,
	}
	if len(verdicts) != len(want) {
		t.Fatalf("compared %v, want exactly %v", verdicts, want)
	}
	for name, regressed := range want {
		if verdicts[name] != regressed {
			t.Fatalf("%s regressed = %v, want %v (lines %+v)", name, verdicts[name], regressed, lines)
		}
	}

	// The new-benchmark line says so explicitly (humans read the CI log
	// to decide whether a baseline refresh is due).
	for _, l := range lines {
		if l.name == "BenchmarkGEMM/new" && !strings.Contains(l.line, "new benchmark") {
			t.Fatalf("missing-baseline line lacks the new-benchmark marker: %s", l.line)
		}
	}

	// A pure timing regression past the threshold fails on its own.
	fresh["BenchmarkGEMM/square64"] = benchjson.Record{Name: "BenchmarkGEMM/square64", NsPerOp: 140000}
	lines = compare(baseline, fresh, prefixes, g)
	for _, l := range lines {
		if l.name == "BenchmarkGEMM/square64" && !l.regressed {
			t.Fatalf("40%% ns/op regression not flagged: %s", l.line)
		}
	}
}

// TestCompareMarksOtherHost pins the host check: a pair measured on
// different machines is marked and reported, a pair that differs only in
// commit or lacks a host is not, and neither changes the gate's verdict.
func TestCompareMarksOtherHost(t *testing.T) {
	g := gate{threshold: 0.25, minNs: 1000, allocSlack: 16}
	a := &benchjson.Host{CPU: "cpu A", GOMAXPROCS: 2, Go: "go1.24.0", Commit: "abc"}
	b := &benchjson.Host{CPU: "cpu B", GOMAXPROCS: 2, Go: "go1.24.0", Commit: "abc"}
	aNext := &benchjson.Host{CPU: "cpu A", GOMAXPROCS: 2, Go: "go1.24.0", Commit: "def"}
	baseline := map[string]benchjson.Record{
		"BenchmarkGEMM/moved":   {Name: "BenchmarkGEMM/moved", NsPerOp: 100000, Host: a},
		"BenchmarkGEMM/same":    {Name: "BenchmarkGEMM/same", NsPerOp: 100000, Host: a},
		"BenchmarkGEMM/unknown": {Name: "BenchmarkGEMM/unknown", NsPerOp: 100000},
	}
	fresh := map[string]benchjson.Record{
		"BenchmarkGEMM/moved":   {Name: "BenchmarkGEMM/moved", NsPerOp: 200000, Host: b},
		"BenchmarkGEMM/same":    {Name: "BenchmarkGEMM/same", NsPerOp: 100000, Host: aNext},
		"BenchmarkGEMM/unknown": {Name: "BenchmarkGEMM/unknown", NsPerOp: 100000, Host: b},
	}
	lines := compare(baseline, fresh, []string{"BenchmarkGEMM"}, g)
	for _, l := range lines {
		want := l.name == "BenchmarkGEMM/moved"
		if l.otherHost != want || strings.Contains(l.line, "different host") != want {
			t.Fatalf("%s: otherHost = %v, want %v (%s)", l.name, l.otherHost, want, l.line)
		}
		if l.regressed != want {
			t.Fatalf("%s: regressed = %v; the host check must not change the gate", l.name, l.regressed)
		}
	}
	if got, want := hostsOf(baseline, lines), `unrecorded; {"cpu":"cpu A","gomaxprocs":2,"go":"go1.24.0","commit":"abc"}`; got != want {
		t.Fatalf("baseline hosts = %s, want %s", got, want)
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`[{"name":"BenchmarkX","n":3,"ns_per_op":42.5}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := benchjson.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := m["BenchmarkX"]; !ok || r.NsPerOp != 42.5 || r.N != 3 {
		t.Fatalf("load = %+v", m)
	}
	if _, err := benchjson.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := benchjson.Load(bad); err == nil {
		t.Fatal("malformed JSON must error")
	}
}
