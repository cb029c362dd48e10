// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (workloads.go) for a fixed wall-clock budget in this process,
// checks the runs' outputs, and prints every metric by name with its
// unit; the last line of standard output is one JSON result object.
//
//	perfbench --workload paper-fmnist --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs, whose only
// wrapper stamps the first LocalInit and every Aggregate return. --trace 1
// repeats the untraced runs, then runs the workload again under the
// per-hook tracer and reports the per-layer metrics, an attribution table
// of round wall time, and the tracing overhead. run.sh builds and runs it
// from the root of a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds (per phase)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	printHost(*seed)
	budget := time.Duration(*seconds * float64(time.Second))

	untraced, err := w.measure(*seed, budget, false)
	if err != nil {
		return fail(untraced, err)
	}
	res := result{Correct: true, Attempted: untraced.attempted, Failed: untraced.failed, Metrics: untraced.endToEnd()}
	untraced.print(w)
	printMetrics(res.Metrics)
	if *trace == 1 {
		tr, err := w.measure(*seed, budget, true)
		if err != nil {
			return fail(tr, err)
		}
		if tr.hashes != untraced.hashes {
			return fail(tr, fmt.Errorf("traced runs' final parameters hash %016x, untraced %016x", tr.hashes, untraced.hashes))
		}
		layers, err := tr.perLayer(untraced)
		if err != nil {
			return fail(tr, err)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.Metrics = layers
		tr.printAttribution(w.name)
		printMetrics(layers)
	}
	return emit(res)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fail reports a run error or a failed check: every update the workload
// attempted counts as failed, and the exit status is non-zero.
func fail(s *summary, err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	res := result{Metrics: map[string]metric{}}
	if s != nil {
		res.Attempted = s.attempted
	}
	res.Attempted = max(res.Attempted, 1)
	res.Failed = res.Attempted
	fmt.Printf("failed_ops_frac %.4f frac\n", 1.0)
	emit(res)
	return 1
}

func emit(res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(ms map[string]metric) {
	for _, name := range sortedKeys(ms) {
		fmt.Printf("%-34s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// printHost prints the provenance two results must share to be compared.
func printHost(seed uint64) {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
		"seed":       seed,
	}
	b, _ := json.Marshal(host)
	fmt.Printf("host %s\n", b)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or reports the
// architecture where that file is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
