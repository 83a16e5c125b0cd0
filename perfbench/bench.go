package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	salam "gosalam"
	"gosalam/internal/analysis"
)

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median, and the last round's state is what the measured phase uses.
const setupRounds = 15

// maxFailures caps how many failure messages a report carries.
const maxFailures = 20

// workload is one named scenario. setup builds everything a pass needs
// from the seed (called setupRounds times, each from scratch); prepare does
// untimed work the passes depend on; pass is one measured repetition;
// finish derives the per-layer values once the passes are done.
type workload interface {
	setup(b *bench) error
	prepare(b *bench)
	pass(b *bench)
	finish(b *bench)
}

var workloads = map[string]func() workload{
	"exact-spm":       func() workload { return &exactSPM{} },
	"mem-hier":        func() workload { return &memHier{} },
	"dse-sweep":       func() workload { return &dseSweep{} },
	"sampled-restore": func() workload { return &sampledRestore{} },
}

// bench is the state of one run: operation and failure counts, timing
// samples, per-layer values, and the span recorder of a traced run.
type bench struct {
	name string
	seed int64
	root string

	tr      *tracer // nil in an untraced run
	tracing bool    // spans and timeline recorders are on for this pass
	pass    int

	attempted, failed int
	failures          []string

	samples map[string]map[string][]float64 // metric -> item -> values
	layer   map[string]float64
	fps     map[string][2]uint64 // item -> (cycles, events) of its first run

	passCost map[bool][]float64 // traced? -> host seconds of each pass
	allocs   []passAllocs       // untraced passes only
	heapMB   []float64          // live heap after a forced GC, one per pass boundary
}

// passAllocs is the allocation activity of one untraced pass.
type passAllocs struct {
	mallocs uint64
	bytes   uint64
}

func newBench(name string, seed int64, root string, traced bool) *bench {
	b := &bench{
		name: name, seed: seed, root: root,
		samples:  map[string]map[string][]float64{},
		layer:    map[string]float64{},
		fps:      map[string][2]uint64{},
		passCost: map[bool][]float64{},
	}
	if traced {
		b.tr = &tracer{}
	}
	return b
}

// op runs one checked operation. It counts as attempted; an error or a
// panic counts it as failed. Spans recorded inside share its id.
func (b *bench) op(name string, fn func() error) {
	// Every operation starts from a collected heap, as a fresh salam-sim
	// or salam-dse process would, so one operation's garbage neither
	// slows the next nor decides the peak resident set.
	runtime.GC()
	b.attempted++
	s := b.beginOp(name)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}()
	b.end(s)
	if err != nil {
		b.failed++
		msg := fmt.Sprintf("%s: %v", name, err)
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", msg)
		if len(b.failures) < maxFailures {
			b.failures = append(b.failures, msg)
		}
	}
}

// timed runs fn inside a span named after the public call it makes and
// returns the host CPU seconds it took.
func timed[T any](b *bench, call string, fn func() (T, error)) (T, float64, error) {
	s := b.begin(call)
	t0 := cpuSeconds()
	v, err := fn()
	d := cpuSeconds() - t0
	b.end(s)
	return v, d, err
}

// cpuSeconds is the process's CPU time: every thread, the garbage
// collector's included. Timings use it rather than the wall clock because
// on a shared virtual machine the hypervisor steals a varying share of
// wall time; the span file keeps wall times.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (b *bench) beginOp(name string) int {
	if !b.tracing {
		return -1
	}
	return b.tr.beginOp(name)
}

func (b *bench) begin(name string) int {
	if !b.tracing {
		return -1
	}
	return b.tr.begin(name)
}

func (b *bench) end(s int) {
	if s >= 0 {
		b.tr.end(s)
	}
}

// sample records one measurement of metric for item.
func (b *bench) sample(metric, item string, v float64) {
	m := b.samples[metric]
	if m == nil {
		m = map[string][]float64{}
		b.samples[metric] = m
	}
	m[item] = append(m[item], v)
}

// set records a per-layer value.
func (b *bench) set(metric string, v float64) { b.layer[metric] = v }

// same checks that an item's simulated cycles and events repeat exactly on
// every run of the process — across passes, and between traced and
// untraced passes (the observer-effect check).
func (b *bench) same(item string, cycles, events uint64) error {
	fp := [2]uint64{cycles, events}
	if first, ok := b.fps[item]; ok && first != fp {
		return fmt.Errorf("%s: cycles/events %d/%d differ from the first run's %d/%d (traced pass: %v)",
			item, cycles, events, first[0], first[1], b.tracing)
	}
	b.fps[item] = fp
	return nil
}

func (b *bench) runWorkload(mk func() workload, dur time.Duration) result {
	w := mk()
	b.tracing = b.tr != nil
	for i := 0; i < setupRounds; i++ {
		b.calibrate()
		b.op("setup", func() error {
			t0 := cpuSeconds()
			if err := w.setup(b); err != nil {
				return err
			}
			b.sample("setup_s", "", cpuSeconds()-t0)
			return nil
		})
	}
	if b.failed > 0 {
		return b.result()
	}
	w.prepare(b)

	elab1h, elab1m := salam.ElabCacheStats()
	an1h, an1m := analysis.CacheStats()
	start := time.Now()
	for b.pass = 0; b.pass == 0 || time.Since(start) < dur || (b.tr != nil && b.pass < 2); b.pass++ {
		// A traced run alternates untraced and traced passes, so both
		// see the same process state; the difference is the overhead.
		b.tracing = b.tr != nil && b.pass%2 == 1
		b.calibrate()
		runtime.GC() // drop the calibration's garbage before the heap reading
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.heapMB = append(b.heapMB, float64(m0.HeapAlloc)/(1<<20))
		s := b.beginOp("pass")
		t0 := cpuSeconds()
		w.pass(b)
		cost := cpuSeconds() - t0
		b.end(s)
		runtime.ReadMemStats(&m1)
		b.passCost[b.tracing] = append(b.passCost[b.tracing], cost)
		if !b.tracing {
			b.allocs = append(b.allocs, passAllocs{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc})
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = append(b.heapMB, float64(ms.HeapAlloc)/(1<<20))
	b.tracing = false

	elab2h, elab2m := salam.ElabCacheStats()
	an2h, an2m := analysis.CacheStats()
	b.set("core.elab_hit_ratio", ratio(float64(elab2h-elab1h), float64(elab2h-elab1h+elab2m-elab1m)))
	b.set("analysis.cache_hit_ratio", ratio(float64(an2h-an1h), float64(an2h-an1h+an2m-an1m)))
	if len(b.heapMB) >= 3 {
		// From the end of the first pass to the end of the last.
		b.set("runtime.live_heap_growth_mb", b.heapMB[len(b.heapMB)-1]-b.heapMB[1])
	}
	w.finish(b)
	return b.result()
}

// result assembles the printed metrics: the end-to-end set in an untraced
// run, the per-layer set in a traced one.
func (b *bench) result() result {
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
		report: report{
			Workload: b.name, Seed: b.seed, Trace: b.tr != nil,
			Host: fingerprint(), Passes: b.pass,
			Samples: map[string]sampleInfo{}, Failures: b.failures,
		},
	}
	for name, items := range b.samples {
		var info sampleInfo
		var spreads []float64
		for _, v := range items {
			info.N += len(v)
			if len(v) >= 4 {
				spreads = append(spreads, iqrRatio(v))
			}
		}
		info.Value, _ = b.value(name)
		info.Spread = median(spreads)
		res.report.Samples[name] = info
	}
	b.set("runtime.peak_rss_mb", peakRSSMB())
	list := endToEnd
	if b.tr != nil {
		list = perLayer
		b.layerDerived()
	}
	scale := b.refScale()
	res.report.RefScale = scale
	for _, m := range list {
		v, ok := b.value(m.name)
		if !ok {
			v = b.layer[m.name]
		}
		res.Metrics[m.name] = metric{Value: scaled(v, m.unit, scale), Unit: m.unit}
	}
	return res
}

// layerDerived fills the per-layer values a traced run computes from its
// own passes and spans.
func (b *bench) layerDerived() {
	if t, u := median(b.passCost[true]), median(b.passCost[false]); u > 0 && t > 0 {
		b.set("trace.overhead_pct", 100*(t/u-1))
	}
	traced := len(b.passCost[true])
	for layer, s := range b.tr.selfTimes() {
		if traced > 0 {
			b.set("self."+layer+"_s", s/float64(traced))
		}
	}
	fmt.Fprint(os.Stderr, b.tr.table(traced))
}

// value resolves a sampled metric: the geometric mean over items of each
// item's median, so a cheap item and an expensive one weigh the same.
func (b *bench) value(name string) (float64, bool) {
	items := b.samples[name]
	if len(items) == 0 {
		return 0, false
	}
	meds := make([]float64, 0, len(items))
	for _, v := range items {
		meds = append(meds, median(v))
	}
	return geomean(meds), true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrRatio is the distance between the first and third quartiles of v
// over its median.
func iqrRatio(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// host identifies the machine a result came from, so results are only
// compared on the same host.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func fingerprint() host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads the process's peak resident set (VmHWM), falling back to
// the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil && len(fields) > 0 {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
