package benchjson

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFlushMergesPriorRecords pins the merge-on-write contract: a
// filtered run that produces only some benchmarks must keep every other
// committed record intact, and re-running a benchmark must overwrite
// exactly its own record.
func TestFlushMergesPriorRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "BENCH_results.json")

	first := map[string]Record{
		"BenchmarkGEMM":  {Name: "BenchmarkGEMM", N: 100, NsPerOp: 5000},
		"BenchmarkCodec": {Name: "BenchmarkCodec", N: 50, NsPerOp: 900, AllocsPerOp: 2},
	}
	if err := Flush(path, first); err != nil {
		t.Fatal(err)
	}

	// A filtered second run: one new benchmark, one overwrite.
	second := map[string]Record{
		"BenchmarkWire": {Name: "BenchmarkWire", N: 10, NsPerOp: 200,
			Extra: map[string]float64{"updates_per_sec": 123456}},
		"BenchmarkCodec": {Name: "BenchmarkCodec", N: 80, NsPerOp: 850},
	}
	if err := Flush(path, second); err != nil {
		t.Fatal(err)
	}

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("merged file holds %d records, want 3: %v", len(got), got)
	}
	if got["BenchmarkGEMM"].NsPerOp != 5000 {
		t.Fatalf("untouched record changed: %+v", got["BenchmarkGEMM"])
	}
	if r := got["BenchmarkCodec"]; r.NsPerOp != 850 || r.N != 80 || r.AllocsPerOp != 0 {
		t.Fatalf("re-run record not fully overwritten: %+v", r)
	}
	if got["BenchmarkWire"].Extra["updates_per_sec"] != 123456 {
		t.Fatalf("Extra metrics lost on roundtrip: %+v", got["BenchmarkWire"])
	}
}

// TestFlushRefusesCorruptBaseline pins the failure mode that motivated
// this package: a baseline that exists but does not parse must make
// Flush fail loudly and leave the file untouched, never silently start
// over from empty.
func TestFlushRefusesCorruptBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	corrupt := []byte("[{\"name\": \"BenchmarkGEMM\"")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	err := Flush(path, map[string]Record{"BenchmarkX": {Name: "BenchmarkX"}})
	if err == nil {
		t.Fatal("Flush over a corrupt baseline succeeded")
	}
	data, readErr := os.ReadFile(path)
	if readErr != nil || string(data) != string(corrupt) {
		t.Fatalf("corrupt baseline was modified: %q (%v)", data, readErr)
	}
}

// TestFlushEmptyIsNoOp: a plain `go test` run records nothing and must
// not create or touch the file.
func TestFlushEmptyIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := Flush(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("empty flush created the file (stat err %v)", err)
	}
}

// TestLoadMissingFile: Load surfaces os.IsNotExist so Flush can treat a
// first run as an empty baseline.
func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

// TestHostRoundtrip pins the optional host object: it survives a
// Flush/Load roundtrip, and a record without one stays without one.
func TestHostRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	h := &Host{CPU: "cpu", GOMAXPROCS: 4, Go: "go1.24.0", Commit: "abc-dirty"}
	if err := Flush(path, map[string]Record{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 1, Host: h},
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 2},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a := got["BenchmarkA"].Host; a == nil || *a != *h {
		t.Fatalf("host lost on roundtrip: %+v", a)
	}
	if b := got["BenchmarkB"].Host; b != nil {
		t.Fatalf("record without a host gained one: %+v", b)
	}
	if !h.SameMachine(Host{CPU: "cpu", GOMAXPROCS: 4, Go: "go1.24.0", Commit: "def"}) {
		t.Fatal("hosts differing only in commit must be the same machine")
	}
	for _, o := range []Host{
		{CPU: "other", GOMAXPROCS: 4, Go: "go1.24.0"},
		{CPU: "cpu", GOMAXPROCS: 2, Go: "go1.24.0"},
		{CPU: "cpu", GOMAXPROCS: 4, Go: "go1.22.0"},
	} {
		if h.SameMachine(o) {
			t.Fatalf("%v and %v must be different machines", h, o)
		}
	}
	if c := CurrentHost(); c.CPU == "" || c.GOMAXPROCS < 1 || c.Go == "" || c.Commit == "" {
		t.Fatalf("CurrentHost left a field empty: %+v", c)
	}
}
