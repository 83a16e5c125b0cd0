package main

import (
	"context"
	"fmt"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/search"
	"gosalam/internal/sim"
)

// dseSweep: a salam-dse-shaped cold sweep. Each pass builds fresh kernels
// through campaign.Space.Build and runs campaign.Run with static pruning
// and a pass-scoped session pool over an FU × ports × banks × {spm, cache}
// grid, then an EDP search.Run over a ranged GEMM space. Per-point set-up
// (elaboration, analysis, session build and warm reset, memory re-zeroing,
// scheduling) dominates.
type dseSweep struct {
	spaces  []campaign.Space
	search  campaign.Space
	workers int

	jobCycles map[string]uint64 // job ID -> cycles of its first run
	best      *search.FrontierPoint

	points, pruned      float64 // design points of the first pass
	poolReused, poolNew uint64
	lbGap               []float64
	res                 *search.Result
}

// sweepTotals sums one pass's sweeps.
type sweepTotals struct {
	seconds, cycles, points float64
}

// dseKernels are the Default-preset kernels the grid sweeps.
var dseKernels = []string{"spmv", "fft", "nw"}

func (w *dseSweep) setup(b *bench) error {
	sums := roundSums{}
	if err := parseFixtures(b, sums); err != nil {
		return err
	}
	w.workers = 1
	w.spaces = w.spaces[:0]
	for _, k := range dseKernels {
		sp := campaign.Space{
			Kernel: k, Preset: "default",
			FU: []int{0, 4}, Ports: []int{1, 2, 8}, Banks: []int{2, 4},
			Mem: []string{"spm", "cache"},
		}
		// Build once to decode, construct and elaborate the grid's
		// kernels; passes rebuild them cold.
		_, jobs, d, err := buildSpace(b, sp)
		if err != nil {
			return err
		}
		sums["kernels.build_s"] += d
		j := jobs[0]
		if _, d, err = timed(b, "salam.Elaborate", func() (any, error) {
			return salam.Elaborate(j.Kernel.F, j.Opts.Profile, j.Opts.Accel.FULimits)
		}); err != nil {
			return err
		}
		sums["core.elaborate_s"] += d
		if _, d, err = timed(b, "salam.AnalyzeKernel", func() (any, error) {
			return salam.AnalyzeKernel(j.Kernel, j.Opts)
		}); err != nil {
			return err
		}
		sums["analysis.analyze_s"] += d
		w.spaces = append(w.spaces, sp)
	}
	w.search = campaign.Space{
		Kernel:    "gemm",
		FURange:   &campaign.Range{Min: 1, Max: 500},
		PortRange: &campaign.Range{Min: 1, Max: 50},
		BankRange: &campaign.Range{Min: 1, Max: 8},
		Objective: "edp",
	}
	_, d, err := timed(b, "search.CollapsedSize", func() (int, error) { return search.CollapsedSize(w.search) })
	if err != nil {
		return err
	}
	sums["analysis.bound_s"] += d
	sums.flush(b)
	return nil
}

// buildSpace enumerates a space into jobs and seeds every job's data.
func buildSpace(b *bench, sp campaign.Space) ([]campaign.Point, []campaign.Job, float64, error) {
	type built struct {
		pts  []campaign.Point
		jobs []campaign.Job
	}
	bt, d, err := timed(b, "campaign.Space.Build", func() (built, error) {
		pts, jobs, err := sp.Build()
		return built{pts, jobs}, err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	for i := range bt.jobs {
		bt.jobs[i].Opts.Seed = b.seed
	}
	return bt.pts, bt.jobs, d, nil
}

func (w *dseSweep) prepare(*bench) { w.jobCycles = map[string]uint64{} }

func (w *dseSweep) pass(b *bench) {
	var sweep sweepTotals
	for _, sp := range w.spaces {
		b.op("op:sweep "+sp.Kernel, func() error {
			_, jobs, dBuild, err := buildSpace(b, sp)
			if err != nil {
				return err
			}
			pool := salam.NewSessionPool()
			cfg := campaign.Config{
				Workers:  w.workers,
				Prune:    campaign.StaticPrune,
				Sessions: pool,
				Stats:    sim.NewGroup("bench"),
			}
			out, dRun, _ := timed(b, "campaign.Run", func() ([]campaign.Outcome, error) {
				return campaign.Run(context.Background(), cfg, jobs), nil
			})
			return w.sweepDone(b, jobs, out, pool, dBuild+dRun, &sweep)
		})
	}
	if sweep.seconds > 0 {
		b.sample("campaign.sweep_s", "", sweep.seconds)
		b.sample("campaign.points_per_s", "", sweep.points/sweep.seconds)
		b.sample("call_s", "sweep", sweep.seconds)
		b.sample("sim_mcycles_per_s", "sweep", sweep.cycles/sweep.seconds/1e6)
	}
	b.op("op:search", func() error {
		res, d, err := timed(b, "search.Run", func() (*search.Result, error) {
			return search.Run(context.Background(), search.Config{Space: w.search, Workers: w.workers})
		})
		if err != nil {
			return err
		}
		if res.Drained || len(res.Frontier) != 1 {
			return fmt.Errorf("EDP search returned %d points (drained %v), want exactly one", len(res.Frontier), res.Drained)
		}
		got := res.Frontier[0]
		if w.best == nil {
			w.best = &got
		} else if got.Index != w.best.Index || got.Vec != w.best.Vec {
			return fmt.Errorf("EDP search best %s %+v differs from the first pass's %s %+v", got.ID, got.Vec, w.best.ID, w.best.Vec)
		}
		b.sample("search.run_s", "", d)
		b.sample("call_s", "search", d)
		w.res = res
		return nil
	})
}

// sweepDone checks a sweep's outcomes and adds them to the pass totals.
// A sweep's time covers Space.Build and campaign.Run, which is what a
// salam-dse user waits for; a point counts once resolved, simulated or
// pruned.
func (w *dseSweep) sweepDone(b *bench, jobs []campaign.Job, out []campaign.Outcome, pool *salam.SessionPool, seconds float64, sweep *sweepTotals) error {
	if err := campaign.FirstError(out); err != nil {
		return err
	}
	var points, pruned, sims, cycles float64
	for i, o := range out {
		points++
		if o.Pruned {
			pruned++
			continue
		}
		if o.Metrics == nil {
			return fmt.Errorf("%s: no metrics and not pruned", jobs[i].ID)
		}
		if o.StaticLB > o.Metrics.Cycles {
			return fmt.Errorf("%s: %d cycles under the static lower bound %d", jobs[i].ID, o.Metrics.Cycles, o.StaticLB)
		}
		if first, ok := w.jobCycles[jobs[i].ID]; ok && first != o.Metrics.Cycles {
			return fmt.Errorf("%s: %d cycles, first pass had %d", jobs[i].ID, o.Metrics.Cycles, first)
		}
		w.jobCycles[jobs[i].ID] = o.Metrics.Cycles
		sims++
		cycles += float64(o.Metrics.Cycles)
		if b.pass == 0 && o.StaticLB > 0 {
			w.lbGap = append(w.lbGap, float64(o.Metrics.Cycles)/float64(o.StaticLB))
		}
	}
	if sims == 0 {
		return fmt.Errorf("sweep simulated nothing")
	}
	sweep.seconds += seconds
	sweep.cycles += cycles
	sweep.points += points
	if b.pass == 0 {
		r, c := pool.Stats()
		w.points += points
		w.pruned += pruned
		w.poolReused += r
		w.poolNew += c
	}
	return nil
}

func (w *dseSweep) finish(b *bench) {
	b.set("campaign.pruned_ratio", ratio(w.pruned, w.points))
	b.set("campaign.sessions_reused", float64(w.poolReused))
	b.set("salam.pool_reuse_ratio", ratio(float64(w.poolReused), float64(w.poolReused+w.poolNew)))
	b.set("analysis.lb_gap", geomean(w.lbGap))
	if w.points > 0 {
		for _, a := range b.allocs {
			b.sample("runtime.alloc_mb_per_point", "", float64(a.bytes)/(1<<20)/w.points)
		}
	}
	if r := w.res; r != nil {
		b.set("search.evaluated_ratio", ratio(float64(r.Evaluated), float64(r.Points)))
		b.set("search.simulated", float64(r.Simulated))
		b.set("search.proxy_runs", float64(r.ProxyRuns))
		b.set("search.pruned_ratio", ratio(float64(r.PrunedPoints), float64(r.Points)))
	}
}
