package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// The repository root, seen from this package's directory.
const testRoot = ".."

// shortRun runs one workload for the shortest measured phase.
func shortRun(t *testing.T, name string, seed int64, traced bool) (*bench, result) {
	t.Helper()
	b := newBench(name, seed, testRoot, traced)
	res := b.runWorkload(workloads[name], time.Millisecond)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d: %v",
			name, seed, traced, res.Correct, res.Attempted, res.Failed, res.report.Failures)
	}
	return b, res
}

func checkMetrics(t *testing.T, name string, res result, want []metricDef, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.name)
		case got.Unit != m.unit:
			t.Errorf("%s: metric %s unit %q, want %q", name, m.name, got.Unit, m.unit)
		case nonzero && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.name, got.Value)
		}
	}
}

// Every workload, untraced and traced, prints each of its named metrics
// with its unit and fails nothing.
func TestShortRunEveryWorkload(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			_, res := shortRun(t, name, 1, false)
			checkMetrics(t, name, res, endToEnd, true)
			_, res = shortRun(t, name, 1, true)
			checkMetrics(t, name+" traced", res, perLayer, false)
		})
	}
}

// Simulated counters repeat exactly for one seed and change with the seed
// on the seed-sensitive kernels, which proves the seed reaches the
// program. mem-hier runs them in cache mode, where their data-dependent
// addresses decide hits and misses.
func TestCountersFollowSeed(t *testing.T) {
	a, ra := shortRun(t, "mem-hier", 1, true)
	b, rb := shortRun(t, "mem-hier", 1, true)
	c, rc := shortRun(t, "mem-hier", 2, true)
	for _, m := range []string{"core.cycles", "sim.events"} {
		if ra.Metrics[m].Value != rb.Metrics[m].Value || ra.Metrics[m].Value == 0 {
			t.Errorf("%s: %g then %g with one seed", m, ra.Metrics[m].Value, rb.Metrics[m].Value)
		}
		if ra.Metrics[m].Value == rc.Metrics[m].Value {
			t.Errorf("%s: %g under both seeds", m, ra.Metrics[m].Value)
		}
	}
	for _, item := range []string{"bfs/cache", "spmv/cache", "md-knn/cache"} {
		if a.fps[item] != b.fps[item] {
			t.Errorf("%s: cycles/events %v then %v with one seed", item, a.fps[item], b.fps[item])
		}
		if a.fps[item] == c.fps[item] {
			t.Errorf("%s: cycles/events %v under both seeds", item, a.fps[item])
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// With bad flags, or outside a checkout, the command exits non-zero
// before measuring anything.
func TestRunRefusesBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "exact-spm", "-seconds", "0"},
		{"-workload", "exact-spm", "-trace", "2"},
		{"-workload", "exact-spm"}, // this package's directory is not a checkout root
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if err := checkCheckout(testRoot); err != nil {
		t.Errorf("repository root rejected: %v", err)
	}
}
