// Package benchjson is the shared reader/writer for
// results/BENCH_results.json, the committed machine-readable perf
// trajectory. The root bench harness (bench_json_test.go) writes it
// through Flush and cmd/benchdiff gates on it through Load, so the
// record layout lives in exactly one place. Each record carries the host
// it was measured on, so numbers from two machines are not mistaken for
// a regression or a speedup.
//
// Flush merges instead of overwriting: benchmarks that ran replace
// their previous record, everything else keeps its committed one, so a
// filtered run (CI's smoke step, a local -bench=OneKernel loop) never
// discards the rest of the trajectory. A baseline file that exists but
// does not parse is an error, not an empty merge — silently dropping
// the committed history on a corrupt read was how records used to get
// lost.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Record is one benchmark's result at its final (largest-N) round.
type Record struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra carries benchmark-reported metrics beyond the standard
	// timing rates — throughput figures like updates_per_sec and
	// rounds_per_sec from the federation-scale benchmarks. Omitted from
	// the JSON when empty so kernel records stay compact.
	Extra map[string]float64 `json:"metrics,omitempty"`
	// Host is where and from which commit the record was measured.
	// Records written before hosts were recorded have none.
	Host *Host `json:"host,omitempty"`
}

// Host is a record's provenance: the CPU model, GOMAXPROCS and Go version
// that decide its timings, and the commit that was measured — the fields
// perfbench prints on its host line.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the checkout's HEAD, suffixed "-dirty" when tracked
	// files differed from it, or "unknown" outside a git checkout.
	Commit string `json:"commit"`
}

// SameMachine reports whether two hosts share CPU model, GOMAXPROCS and
// Go version, the fields a timing comparison needs to match. The commits
// may differ: they are what the comparison is about.
func (h Host) SameMachine(o Host) bool {
	return h.CPU == o.CPU && h.GOMAXPROCS == o.GOMAXPROCS && h.Go == o.Go
}

// String renders the host as the one-line JSON object perfbench prints.
func (h Host) String() string {
	b, _ := json.Marshal(h)
	return string(b)
}

// CurrentHost describes the running process: CPU model from
// /proc/cpuinfo (the architecture where that file is absent), GOMAXPROCS,
// Go version, and the commit of the git checkout in the working directory.
func CurrentHost() Host {
	return Host{
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
	}
}

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

// gitCommit asks git rather than the binary's build info: test binaries,
// which write the bench records, carry no VCS stamp.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	// diff --quiet exits 1 when tracked files differ from HEAD.
	if exec.Command("git", "diff", "--quiet", "HEAD", "--").Run() != nil {
		commit += "-dirty"
	}
	return commit
}

// Load reads one bench-results file into a by-name map.
func Load(path string) (map[string]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []Record
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Record, len(records))
	for _, r := range records {
		out[r.Name] = r
	}
	return out, nil
}

// Flush merges fresh records into the file at path: fresh entries
// overwrite same-name prior ones, all other prior records are kept, and
// the result is written back sorted by name. A missing file is an empty
// baseline; an unreadable or unparsable one is an error so a corrupt
// file can't silently eat the committed trajectory. No-op when fresh is
// empty.
func Flush(path string, fresh map[string]Record) error {
	if len(fresh) == 0 {
		return nil
	}
	merged, err := Load(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		merged = map[string]Record{}
	}
	for name, r := range fresh {
		merged[name] = r
	}
	out := make([]Record, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
