// Command perfbench is the repository's benchmark. It starts cmd/memcached as
// a child process at its shipped defaults, drives it through the public
// client package with one connection per CPU, checks every reply, and prints
// the run's metrics as one JSON object on the last line of standard output.
//
//	perfbench -server <memcached binary> --workload kv-small --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run also replays the workload's op stream through a
// ladder of the repository's public entry points (engine, protocol, client,
// server) and reports per-layer metrics instead of end-to-end ones. The
// workloads, metrics and the layer→end-to-end table are in WORKLOADS.md;
// perfbench/run.sh builds both binaries and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed for the op streams and arrival times")
		seconds = flag.Int("seconds", 20, "measured seconds per run (closed loop + open loop)")
		traceOn = flag.Int("trace", 0, "1 = also run the traced layer ladder and report per-layer metrics")
		bin     = flag.String("server", "", "path to the memcached binary under test")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for span files")
		root    = flag.String("root", ".", "source tree the binaries were built from (for the run's tree digest)")
	)
	flag.Parse()
	// The generator's own garbage collections delay requests it then times;
	// its heap is small, so trading memory for fewer collections is cheap.
	debug.SetGCPercent(400)
	wl, err := findWorkload(*wlName)
	if err == nil && *bin == "" {
		err = fmt.Errorf("-server is required")
	}
	if err == nil && (*seconds < 1 || (*traceOn != 0 && *traceOn != 1)) {
		err = fmt.Errorf("-seconds must be ≥1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *traceOn == 1, serverBin: *bin, outDir: *outDir, root: *root}
	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	m, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(m))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.Name)
	}
	return strings.Join(n, ", ")
}

type runConfig struct {
	wl        *Workload
	seed      uint64
	seconds   int
	trace     bool
	serverBin string
	outDir    string
	root      string
}

// runMeta is recorded with every run.
type runMeta struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"numcpu"`
	Nproc      int            `json:"nproc"`
	Conns      int            `json:"conns"`
	Shards     int64          `json:"shards"`
	Transport  string         `json:"transport"`
	Branch     string         `json:"branch"`
	GoVersion  string         `json:"go"`
	Commit     string         `json:"commit"`
	Rate       float64        `json:"offered_rate_per_s"`
	ClosedS    float64        `json:"closed_loop_s"`
	OpenS      float64        `json:"open_loop_s"`
	Samples    map[string]int `json:"samples"`
	// InstanceRates are the closed-loop request rates of each server
	// instance; ops_per_s is their median.
	InstanceRates []float64 `json:"closed_instance_rates"`
	// Chunks is how many chunks each kind's quantiles are medians over.
	Chunks map[string]int `json:"chunks"`
	// Quantiles are the open-loop latency quantiles per request kind, µs.
	Quantiles  map[string]map[string]float64 `json:"latency_quantiles_us"`
	FailedFrac float64                       `json:"failed_frac"`
	Setups     []float64                     `json:"setup_runs_s"`
	Violations []string                      `json:"violations,omitempty"`
	Invalid    []string                      `json:"invalid,omitempty"`
	Ladder     *ladderMeta                   `json:"ladder,omitempty"`
	Counters   map[string]int64              `json:"counters"`
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// treeDigest identifies the source tree the binaries were built from: the
// git commit when the tree is a checkout, else a hash of its Go sources.
func treeDigest(root string) string {
	if b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return strings.TrimSpace(string(c))
			}
			return ref
		}
		return ref
	}
	return "tree:" + sourceHash(root)
}
