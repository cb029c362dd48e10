// Command benchdiff compares a fresh results/BENCH_results.json against a
// committed baseline and fails (exit 1) when a pinned kernel regressed —
// in ns/op beyond the fractional threshold, or in allocs/op beyond the
// absolute slack — the cheap CI gate behind the bench smoke step.
//
// Usage:
//
//	benchdiff -baseline /tmp/bench_baseline.json -fresh results/BENCH_results.json
//	benchdiff -baseline old.json -fresh new.json -threshold 0.5 -pins BenchmarkCodec,BenchmarkGEMM
//	benchdiff -baseline old.json -fresh new.json -alloc-slack 0
//
// Only fresh benchmarks matching a pinned name prefix are gated, so a
// filtered bench run gates exactly the kernels it measured; a pinned
// benchmark absent from the baseline is reported as new and passes.
// Entries faster than -min-ns in the baseline are skipped for
// the timing gate: below that, one-shot (-benchtime=1x) timer noise
// dominates any real signal. The allocation gate has no such floor —
// allocs/op is deterministic, and the pinned kernels are all 0-alloc in
// steady state, so a new allocation on a hot path is a real regression no
// matter how fast the kernel is.
//
// Records carry the host they were measured on (CPU model, GOMAXPROCS, Go
// version, commit). benchdiff prints both sides' hosts and warns loudly
// when the compared records come from different machines, marking each
// such line: an ns/op delta across machines measures the machines. The
// gates themselves do not change.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchjson"
)

// defaultPins are the kernel families whose ns/op and allocs/op the gate
// watches: the compute substrate's GEMM, conv packing and gradient paths,
// the fused and sparse vector kernels, the uplink codecs, and the wire
// frame/payload marshalling. Experiment-grade benchmarks (whole training grids and the
// loopback throughput runs) are deliberately not pinned — their runtimes
// swing with scheduling, not kernel regressions.
const defaultPins = "BenchmarkGradEval,BenchmarkGEMM,BenchmarkIm2col,BenchmarkCodec,BenchmarkSparseAggregate,BenchmarkAXPY,BenchmarkCosineSimilarity,BenchmarkAggStack,BenchmarkWirePayload,BenchmarkWireFrame"

// gate holds the comparison thresholds.
type gate struct {
	// threshold is the maximum tolerated fractional ns/op regression.
	threshold float64
	// minNs skips the timing comparison for baseline entries faster than
	// this (timer noise); the allocation gate still applies.
	minNs float64
	// allocSlack is the maximum tolerated absolute allocs/op increase.
	// One-shot benchmark iterations fold harness setup (sub-benchmark
	// bookkeeping, first-call laziness) into allocs/op, so a small slack
	// absorbs that noise while still catching a per-element or per-round
	// allocation slipping into a pinned kernel.
	allocSlack float64
}

// diffLine is one compared benchmark's verdict.
type diffLine struct {
	name      string
	line      string
	regressed bool
	// otherHost marks a comparison whose two records were measured on
	// different machines.
	otherHost bool
}

// compare gates every fresh benchmark that matches a pinned prefix and
// exists in the baseline, returning one verdict per compared entry.
func compare(baseline, fresh map[string]benchjson.Record, prefixes []string, g gate) []diffLine {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []diffLine
	for _, name := range names {
		if !pinned(name, prefixes) {
			continue
		}
		f := fresh[name]
		base, ok := baseline[name]
		if !ok {
			// A pinned benchmark with no baseline entry is a freshly added
			// kernel, not a regression: report it as passing so a PR that
			// introduces a benchmark doesn't have to update the committed
			// baseline in the same change.
			out = append(out, diffLine{
				name: name,
				line: fmt.Sprintf("%-55s %12s -> %12.0f ns/op  %5s -> %5.0f allocs/op  new benchmark (no baseline)",
					name, "-", f.NsPerOp, "-", f.AllocsPerOp),
			})
			continue
		}
		var reasons []string
		if base.NsPerOp > g.minNs {
			if delta := f.NsPerOp/base.NsPerOp - 1; delta > g.threshold {
				reasons = append(reasons, fmt.Sprintf("ns/op %+.1f%%", 100*delta))
			}
		}
		if dAllocs := f.AllocsPerOp - base.AllocsPerOp; dAllocs > g.allocSlack {
			reasons = append(reasons, fmt.Sprintf("allocs/op %+.0f", dAllocs))
		}
		status := "ok"
		if len(reasons) > 0 {
			status = "REGRESSED (" + strings.Join(reasons, ", ") + ")"
		}
		otherHost := base.Host != nil && f.Host != nil && !base.Host.SameMachine(*f.Host)
		if otherHost {
			status += "  [different host]"
		}
		out = append(out, diffLine{
			name: name,
			line: fmt.Sprintf("%-55s %12.0f -> %12.0f ns/op  %5.0f -> %5.0f allocs/op  %s",
				name, base.NsPerOp, f.NsPerOp, base.AllocsPerOp, f.AllocsPerOp, status),
			regressed: len(reasons) > 0,
			otherHost: otherHost,
		})
	}
	return out
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline JSON (required)")
		freshPath    = flag.String("fresh", "results/BENCH_results.json", "freshly produced JSON")
		threshold    = flag.Float64("threshold", 0.25, "maximum tolerated fractional ns/op regression")
		minNs        = flag.Float64("min-ns", 1000, "skip the timing gate for baseline entries faster than this (timer noise)")
		allocSlack   = flag.Float64("alloc-slack", 16, "maximum tolerated absolute allocs/op increase")
		pins         = flag.String("pins", defaultPins, "comma-separated benchmark name prefixes to gate")
	)
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline is required")
		os.Exit(2)
	}
	baseline, err := benchjson.Load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := benchjson.Load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	lines := compare(baseline, fresh, strings.Split(*pins, ","), gate{
		threshold:  *threshold,
		minNs:      *minNs,
		allocSlack: *allocSlack,
	})
	fmt.Println("baseline host:", hostsOf(baseline, lines))
	fmt.Println("fresh host:   ", hostsOf(fresh, lines))
	regressed, otherHost := 0, 0
	for _, l := range lines {
		if l.regressed {
			regressed++
		}
		if l.otherHost {
			otherHost++
		}
		fmt.Println(l.line)
	}
	if otherHost > 0 {
		fmt.Printf("benchdiff: WARNING: %d of %d comparisons pair records from different hosts (CPU, GOMAXPROCS or Go version); their ns/op deltas measure the machines, not the code\n",
			otherHost, len(lines))
	}
	fmt.Printf("benchdiff: %d pinned kernels compared, %d regressed (ns/op beyond %.0f%% or allocs/op beyond +%.0f)\n",
		len(lines), regressed, 100**threshold, *allocSlack)
	if regressed > 0 {
		os.Exit(1)
	}
}

// hostsOf lists the distinct hosts of the compared benchmarks' records in
// one file, "unrecorded" standing for records that carry none.
func hostsOf(records map[string]benchjson.Record, lines []diffLine) string {
	seen := map[string]bool{}
	var hosts []string
	for _, l := range lines {
		r, ok := records[l.name]
		if !ok {
			continue
		}
		h := "unrecorded"
		if r.Host != nil {
			h = r.Host.String()
		}
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return "none compared"
	}
	sort.Strings(hosts)
	return strings.Join(hosts, "; ")
}

// pinned reports whether the benchmark name matches a gated prefix.
func pinned(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
