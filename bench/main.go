// Command bench is the WEBDIS benchmark: it drives one of three fixed
// workloads against the engine through its public entry points, checks
// every answer, and prints the run's metrics as one JSON line.
//
//	bench --workload tree40-tcp --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of one untraced measurement
// window. --trace 1 prints the per-layer metrics: counters from an
// untraced window, timings of single layer functions on the workload's
// own inputs, and span timings from a second window with tracing on.
// See README.md for the workloads, the op definitions and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric. A metric with no samples (every op of its
// kind failed) reads 0 and fails the run.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "bench: no samples for %s\n", name)
		v, r.Correct = 0, false
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: tree40-tcp, bigtree-store or watch-store")
	seed := flag.Int64("seed", 1, "seed of the generated web and mutation schedule")
	seconds := flag.Int("seconds", 30, "length of the measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	// Site stores and other scratch files live under the checkout's
	// build directory, never outside it.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err = filepath.Abs(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	p := params{seed: *seed, dir: scratch}
	window := time.Duration(*seconds) * time.Second
	var rep *report
	if *traced == 0 {
		rep, err = endToEnd(wl, p, window)
	} else {
		rep, err = perLayer(wl, p, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
