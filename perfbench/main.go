// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public API for a given seed, checks
// every output, and prints every end-to-end metric by name with its unit.
// With -trace 1 it instead prints the per-layer metrics, recorded from
// spans around each public call and from the program's public counters.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload exact-spm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a report
// that carries the host fingerprint, sample counts and any failures.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// perfbench/design.json records why each exists and what should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "trace")

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkCheckout("."); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b := newBench(*workload, *seed, ".", *traceFlag == 1)
	res := b.runWorkload(w, time.Duration(*seconds)*time.Second)
	if b.tr != nil {
		path, err := b.tr.write(traceDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	printResult(os.Stdout, res)
	return 0
}

// checkCheckout fails fast when the inputs the workloads decode are not
// there, so a run outside a full checkout exits without a result.
func checkCheckout(root string) error {
	for _, p := range append(append([]string(nil), llFixtures...), shippedConfigs...) {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("not a repository checkout: %w", err)
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report report
}

// report is the line printed before the result: what ran, where, and how
// many samples stand behind each metric.
type report struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Trace    bool                  `json:"trace"`
	Host     host                  `json:"host"`
	Passes   int                   `json:"passes"`
	RefScale float64               `json:"ref_scale"`
	Samples  map[string]sampleInfo `json:"samples"`
	Failures []string              `json:"failures,omitempty"`
}

// sampleInfo describes the samples behind a timed metric: how many, the
// value they resolve to, and their spread within this run (the median over
// items of each item's interquartile range over its median).
// Values are in CPU seconds; the printed metrics are in reference seconds,
// CPU seconds times ref_scale (see refCalibrationSeconds).
type sampleInfo struct {
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Spread float64 `json:"spread"`
}

func printResult(f *os.File, res result) {
	rep, _ := json.Marshal(map[string]report{"perfbench": res.report})
	fmt.Fprintln(f, string(rep))
	out, _ := json.Marshal(res)
	fmt.Fprintln(f, string(out))
}
