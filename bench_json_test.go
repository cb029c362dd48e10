// Machine-readable benchmark results: every instrumented benchmark
// (defer recordBench(b)() as its first statement) contributes one record,
// and TestMain persists them to results/BENCH_results.json after the run,
// so the perf trajectory of the substrate is tracked across PRs by diffing
// a small JSON file instead of parsing -bench output. The record layout
// and the merge-on-write live in internal/benchjson, shared with the
// cmd/benchdiff gate.
package taco_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/benchjson"
)

var (
	benchResMu sync.Mutex
	benchRes   = map[string]benchjson.Record{}
	benchExtra = map[string]map[string]float64{}
	// benchHost is read once, as the first recorded benchmark starts.
	benchHost     *benchjson.Host
	benchHostOnce sync.Once
)

// recordBench captures a benchmark's timing and allocation rates, and
// the host they were measured on. Use as
// the benchmark's first statement:
//
//	defer recordBench(b)()
//
// The testing package re-invokes a benchmark body with growing b.N; each
// invocation overwrites the previous record, so the persisted numbers are
// the ones from the final, longest round (the same round `go test -bench`
// reports). B/op and allocs/op are process-wide deltas — benchmarks run
// sequentially, so the numbers include any setup before b.ResetTimer,
// which makes them an upper bound rather than the timer-scoped figure.
func recordBench(b *testing.B) func() {
	benchHostOnce.Do(func() {
		h := benchjson.CurrentHost()
		benchHost = &h
	})
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	return func() {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		benchResMu.Lock()
		defer benchResMu.Unlock()
		benchRes[b.Name()] = benchjson.Record{
			Host:        benchHost,
			Name:        b.Name(),
			N:           b.N,
			NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(b.N),
		}
	}
}

// recordBenchMetric attaches a named throughput figure (updates_per_sec,
// rounds_per_sec, ...) to the benchmark's persisted record, alongside the
// same value reported to the -bench output via b.ReportMetric. Later
// calls for the same key overwrite, so the final (largest-N) round wins,
// matching recordBench.
func recordBenchMetric(b *testing.B, key string, v float64) {
	b.ReportMetric(v, key)
	benchResMu.Lock()
	defer benchResMu.Unlock()
	m := benchExtra[b.Name()]
	if m == nil {
		m = map[string]float64{}
		benchExtra[b.Name()] = m
	}
	m[key] = v
}

// benchResultsPath is committed (exempted from the results/ gitignore)
// so the perf trajectory is diffable across PRs.
const benchResultsPath = "results/BENCH_results.json"

// flushBenchResults merges the collected records into benchResultsPath.
// No-op when no benchmark ran (plain `go test`); a write failure or a
// corrupt existing file is reported, not swallowed.
func flushBenchResults() {
	benchResMu.Lock()
	defer benchResMu.Unlock()
	for name, extra := range benchExtra {
		r, ok := benchRes[name]
		if !ok {
			continue
		}
		r.Extra = extra
		benchRes[name] = r
	}
	if err := benchjson.Flush(benchResultsPath, benchRes); err != nil {
		fmt.Fprintln(os.Stderr, "bench results not persisted:", err)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	flushBenchResults()
	os.Exit(code)
}
