package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	salam "gosalam"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/ir"
	"gosalam/kernels"
)

// llFixtures are the clang-emitted kernels every set-up decodes, the
// front end of the bring-your-own-kernel path.
var llFixtures = []string{
	"testdata/ll/gemm.ll",
	"testdata/ll/spmv.ll",
	"testdata/ll/relu.ll",
}

// shippedConfigs are the SoC documents mem-hier scales up.
var shippedConfigs = []string{
	"configs/cnn_stream.json",
	"configs/cnn_cluster.json",
}

// roundSums accumulates the per-layer time of one set-up round; flush
// records each sum as one sample.
type roundSums map[string]float64

func (r roundSums) flush(b *bench) {
	for k, v := range r {
		b.sample(k, "", v)
	}
}

// parseFixtures decodes the .ll fixtures (ir.parse_s).
func parseFixtures(b *bench, sums roundSums) error {
	for _, p := range llFixtures {
		src, err := os.ReadFile(filepath.Join(b.root, p))
		if err != nil {
			return err
		}
		_, d, err := timed(b, "ir.Parse", func() (*ir.Module, error) {
			return ir.Parse(filepath.Base(p), string(src))
		})
		if err != nil {
			return err
		}
		sums["ir.parse_s"] += d
	}
	return nil
}

// kernelSpec is one single-accelerator item, written as the flat config
// document a salam-sim user would pass. setupKernels fills Seed and Memory.
type kernelSpec struct {
	Kernel string `json:"kernel"`
	Size   []int  `json:"size"`
	Seed   int64  `json:"seed"`
	Memory string `json:"memory,omitempty"`
}

// kernelItem is a decoded, elaborated single-accelerator item.
type kernelItem struct {
	label string
	k     *kernels.Kernel
	opts  salam.RunOpts
	lb    uint64 // static cycle lower bound
}

// setupKernels writes each spec as a flat config with the run's seed and
// the given memory kind, decodes it through soccfg and KernelFromConfig,
// generates its inputs from the seed, and elaborates and analyses it.
func setupKernels(b *bench, specs []kernelSpec, mem string, sums roundSums) ([]kernelItem, error) {
	items := make([]kernelItem, 0, len(specs))
	for _, sp := range specs {
		sp.Seed = b.seed
		sp.Memory = mem
		doc, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		cfg, d, err := timed(b, "soccfg.Parse", func() (*soccfg.Config, error) { return soccfg.Parse(doc) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Kernel, err)
		}
		sums["soccfg.parse_s"] += d
		type built struct {
			k    *kernels.Kernel
			opts salam.RunOpts
		}
		kb, d, err := timed(b, "salam.KernelFromConfig", func() (built, error) {
			k, o, err := salam.KernelFromConfig(cfg)
			return built{k, o}, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Kernel, err)
		}
		sums["kernels.build_s"] += d
		it := kernelItem{label: sp.Kernel + "/" + sp.Memory, k: kb.k, opts: kb.opts}
		if it.opts.Seed != b.seed {
			return nil, fmt.Errorf("%s: config seed %d did not reach RunOpts (%d)", sp.Kernel, b.seed, it.opts.Seed)
		}
		// Generate the inputs once so a malformed workload fails here.
		inst := it.k.Setup(ir.NewFlatMem(0, 1<<21), it.opts.Seed)
		if inst.Bytes <= 0 {
			return nil, fmt.Errorf("%s: empty workload", sp.Kernel)
		}
		if _, d, err = timed(b, "salam.Elaborate", func() (any, error) {
			return salam.Elaborate(it.k.F, it.opts.Profile, it.opts.Accel.FULimits)
		}); err != nil {
			return nil, err
		}
		sums["core.elaborate_s"] += d
		if _, d, err = timed(b, "salam.AnalyzeKernel", func() (any, error) {
			return salam.AnalyzeKernel(it.k, it.opts)
		}); err != nil {
			return nil, err
		}
		sums["analysis.analyze_s"] += d
		lb, d, _ := timed(b, "salam.StaticLowerBound", func() (uint64, error) {
			lb, _ := salam.StaticLowerBound(it.k, it.opts)
			return lb, nil
		})
		sums["analysis.bound_s"] += d
		it.lb = lb
		items = append(items, it)
	}
	return items, nil
}

// engineLanes wraps a timeline.Breakdown to remember the engine lanes
// registered on it, so the cycle attribution can be summed over every
// accelerator of a system.
type engineLanes struct {
	*timeline.Breakdown
	lanes [][2]string
}

func newEngineLanes() *engineLanes { return &engineLanes{Breakdown: timeline.NewBreakdown()} }

func (e *engineLanes) Lane(group, name string) timeline.LaneID {
	if name == "engine" {
		e.lanes = append(e.lanes, [2]string{group, name})
	}
	return e.Breakdown.Lane(group, name)
}

// classes sums the cycle classes over the registered engine lanes.
func (e *engineLanes) classes() [timeline.NumCycleClasses]uint64 {
	var out [timeline.NumCycleClasses]uint64
	seen := map[[2]string]bool{}
	for _, l := range e.lanes {
		if seen[l] {
			continue // reattached lanes report the same counts
		}
		seen[l] = true
		c, _ := e.Counts(l[0], l[1])
		for i, n := range c {
			out[i] += n
		}
	}
	return out
}

// timelineTotals accumulates cycle attribution over one traced pass.
type timelineTotals [timeline.NumCycleClasses]uint64

func (t *timelineTotals) add(c [timeline.NumCycleClasses]uint64) {
	for i, n := range c {
		t[i] += n
	}
}

func (t *timelineTotals) publish(b *bench) {
	b.set("timeline.issue", float64(t[timeline.ClassIssue]))
	b.set("timeline.stall.mem", float64(t[timeline.ClassStallMem]))
	b.set("timeline.stall.fu", float64(t[timeline.ClassStallFU]))
	b.set("timeline.stall.fetch", float64(t[timeline.ClassStallFetch]))
	b.set("timeline.stall.operand", float64(t[timeline.ClassStallOperand]))
}
