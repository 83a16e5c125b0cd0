package main

import (
	"fmt"

	salam "gosalam"
)

// exactSPM: exact RunKernel of the nine MachSuite kernels in the
// paper-default scratchpad configuration, sized so the cycle loop
// dominates per-run set-up. The salam-sim user.
type exactSPM struct {
	kernelRuns
}

var exactSPMSpecs = []kernelSpec{
	{Kernel: "bfs", Size: []int{256, 4}},
	{Kernel: "fft", Size: []int{1024}},
	{Kernel: "gemm", Size: []int{32}},
	{Kernel: "md-knn", Size: []int{256, 16}},
	{Kernel: "md-grid", Size: []int{3, 6}},
	{Kernel: "nw", Size: []int{96}},
	{Kernel: "spmv", Size: []int{1024, 5}},
	{Kernel: "stencil2d", Size: []int{64, 64}},
	{Kernel: "stencil3d", Size: []int{12, 12, 12}},
}

func (w *exactSPM) setup(b *bench) error {
	sums := roundSums{}
	if err := parseFixtures(b, sums); err != nil {
		return err
	}
	items, err := setupKernels(b, exactSPMSpecs, "spm", sums)
	if err != nil {
		return err
	}
	w.items = items
	sums.flush(b)
	return nil
}

func (w *exactSPM) prepare(*bench) {}

func (w *exactSPM) pass(b *bench) {
	var tot passTotals
	w.run(b, &tot)
	w.passDone(b, tot)
}

func (w *exactSPM) finish(b *bench) { w.publish(b) }

// kernelRuns is a set of single-accelerator items run through RunKernel,
// shared by exact-spm and the cache half of mem-hier.
type kernelRuns struct {
	items []kernelItem

	counts     layerCounts
	tl         timelineTotals
	lbGap      []float64
	events     uint64
	passCycles []uint64 // simulated cycles of each untraced pass
}

// passTotals sums the simulating calls of one pass.
type passTotals struct {
	seconds        float64
	cycles, events uint64
}

// run executes every item once; tot gathers the pass's simulating calls.
func (r *kernelRuns) run(b *bench, tot *passTotals) {
	for _, it := range r.items {
		b.op("op:run "+it.label, func() error {
			opts := it.opts
			var lanes *engineLanes
			if b.tracing {
				lanes = newEngineLanes()
				opts.Timeline = lanes
			}
			res, d, err := timed(b, "salam.RunKernel", func() (*salam.Result, error) {
				return salam.RunKernel(it.k, opts)
			})
			if err != nil {
				return err
			}
			if err := b.same(it.label, res.Cycles, res.EventsFired); err != nil {
				return err
			}
			if it.lb > res.Cycles {
				return fmt.Errorf("%s: %d cycles under the static lower bound %d", it.label, res.Cycles, it.lb)
			}
			b.sample("sim_mcycles_per_s", it.label, float64(res.Cycles)/d/1e6)
			b.sample("call_s", it.label, d)
			tot.add(d, res.Cycles, res.EventsFired)
			if b.pass == 0 {
				r.counts.add(readStats(res.Stats))
				r.events += res.EventsFired
				if it.lb > 0 {
					r.lbGap = append(r.lbGap, float64(res.Cycles)/float64(it.lb))
				}
			}
			if lanes != nil && b.pass == 1 {
				r.tl.add(lanes.classes())
			}
			return nil
		})
	}
}

func (t *passTotals) add(seconds float64, cycles, events uint64) {
	t.seconds += seconds
	t.cycles += cycles
	t.events += events
}

// passDone records the pass's host cost per event and per cycle, and
// remembers its cycles for the allocation rate.
func (r *kernelRuns) passDone(b *bench, tot passTotals) {
	if b.tracing {
		return
	}
	r.passCycles = append(r.passCycles, tot.cycles)
	if tot.cycles > 0 && tot.events > 0 {
		b.sample("sim.ns_per_event", "", tot.seconds*1e9/float64(tot.events))
		b.sample("core.ns_per_cycle", "", tot.seconds*1e9/float64(tot.cycles))
	}
}

func (r *kernelRuns) publish(b *bench) {
	r.counts.publish(b)
	r.tl.publish(b)
	b.set("sim.events", float64(r.events))
	b.set("analysis.lb_gap", geomean(r.lbGap))
	// Untraced passes line up one to one with the bench's allocation log.
	for i, c := range r.passCycles {
		if i < len(b.allocs) && c > 0 {
			b.sample("runtime.allocs_per_kcycle", "", float64(b.allocs[i].mallocs)/(float64(c)/1000))
		}
	}
}
