package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed region around a public call (or a benchmark-level
// operation). Spans of one operation share op; parent indexes the
// enclosing span (-1 for an operation's root).
type span struct {
	name   string
	op     int
	parent int
	start  time.Time
	end    time.Time
}

// tracer keeps spans in memory; write dumps them when the run ends. All
// spans are recorded from the benchmark's goroutine, so it needs no lock.
type tracer struct {
	spans []span
	stack []int
	ops   int
	epoch time.Time
}

// beginOp opens the root span of a new operation (nested inside the
// current one when an operation runs inside another, such as a pass).
func (t *tracer) beginOp(name string) int {
	t.ops++
	return t.push(name, t.ops)
}

func (t *tracer) begin(name string) int {
	op := 0
	if n := len(t.stack); n > 0 {
		op = t.spans[t.stack[n-1]].op
	}
	return t.push(name, op)
}

func (t *tracer) push(name string, op int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	now := time.Now()
	if t.epoch.IsZero() {
		t.epoch = now
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].end = time.Now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
}

// layerOf maps a span name to the module whose public call it wraps.
// Benchmark-level spans (operations, passes) belong to "bench".
func layerOf(name string) string {
	switch {
	case name == "salam.Elaborate":
		return "core"
	case name == "salam.AnalyzeKernel", strings.HasPrefix(name, "salam.Static"), name == "salam.SampleEligible":
		return "analysis"
	case name == "salam.KernelFromConfig":
		return "kernels"
	case name == "salam.Session.Checkpoint", name == "salam.Session.Restore":
		return "snapshot"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// selfDurations returns each span's self time: its duration minus the
// part its children cover. Children never overlap (one goroutine records
// them), so the covered part is the sum of the children's durations.
func (t *tracer) selfDurations() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end.Sub(s.start)
		if s.parent >= 0 {
			self[s.parent] -= s.end.Sub(s.start)
		}
	}
	return self
}

// selfTimes returns, per layer, the summed self time of the spans inside
// traced passes.
func (t *tracer) selfTimes() map[string]float64 {
	self := t.selfDurations()
	inPass := make([]bool, len(t.spans))
	out := map[string]float64{}
	for i, s := range t.spans {
		inPass[i] = s.name == "pass" || (s.parent >= 0 && inPass[s.parent])
		if inPass[i] {
			out[layerOf(s.name)] += self[i].Seconds()
		}
	}
	return out
}

// table renders, per span name, the count and total self time over the run.
func (t *tracer) table(passes int) string {
	type row struct {
		n    int
		self time.Duration
	}
	self := t.selfDurations()
	rows := map[string]*row{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{}
			rows[s.name] = r
		}
		r.n++
		r.self += self[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %-9s %8s %12s\n", "span", "layer", "count", "self_s")
	for _, n := range names {
		fmt.Fprintf(&sb, "%-28s %-9s %8d %12.6f\n", n, layerOf(n), rows[n].n, rows[n].self.Seconds())
	}
	fmt.Fprintf(&sb, "(%d spans over setup, prepare and %d traced passes)\n", len(t.spans), passes)
	return sb.String()
}

// write dumps the spans as Chrome trace_event JSON (loadable in Perfetto),
// each event carrying its span index, operation id and parent.
func (t *tracer) write(dir, file string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "op": s.op, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	return path, os.WriteFile(path, data, 0o644)
}
