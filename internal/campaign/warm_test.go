package campaign

import (
	"context"
	"fmt"
	"testing"

	salam "gosalam"
	"gosalam/internal/sim"
	"gosalam/kernels"
)

// TestSharedCDFGParallelWorkers hammers one cached CDFG from many warm
// campaign workers at once: every job runs the identical configuration, so
// all workers' sessions share a single immutable graph while simulating
// concurrently. Under -race (the make race gate runs this package) the
// test proves the static artifact is read-only at runtime; the cycle
// assertion proves pooled warm-started systems stay byte-deterministic.
func TestSharedCDFGParallelWorkers(t *testing.T) {
	k := kernels.GEMMTree(8)
	opts := salam.DefaultRunOpts()
	opts.Accel.FULimits = map[salam.FUClass]int{salam.FUFPAdder: 4, salam.FUFPMultiplier: 4}

	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("p%d", i), Kernel: k, Opts: opts}
	}

	stats := sim.NewGroup("stress")
	out := Run(context.Background(), Config{Workers: 8, Stats: stats}, jobs)
	want := out[0].Metrics.Cycles
	for _, o := range out {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Job.ID, o.Err)
		}
		if o.Metrics.Cycles != want {
			t.Fatalf("%s: %d cycles, first job got %d", o.Job.ID, o.Metrics.Cycles, want)
		}
	}

	// Warm start is the default: with 8 workers at most 8 sessions are
	// built and the remaining jobs reuse them.
	built, ok := stats.Lookup("stress.campaign.sessions_built")
	if !ok {
		t.Fatal("sessions_built counter missing")
	}
	reused, ok := stats.Lookup("stress.campaign.sessions_reused")
	if !ok {
		t.Fatal("sessions_reused counter missing")
	}
	if built > 8 || reused+built != n {
		t.Fatalf("sessions built=%v reused=%v over %d jobs", built, reused, n)
	}
}

// TestWarmMatchesColdCampaign: the warm-start default must emit the same
// metrics as a cold-start campaign (a fresh system per job through
// salam.RunKernelCtx) over a mixed sweep.
func TestWarmMatchesColdCampaign(t *testing.T) {
	warm := Run(context.Background(), Config{Workers: 4}, sweepJobs(t))
	cold := Run(context.Background(), Config{Workers: 4, Runner: salam.RunKernelCtx}, sweepJobs(t))
	for i := range warm {
		if warm[i].Err != nil || cold[i].Err != nil {
			t.Fatalf("job %d: warm err %v, cold err %v", i, warm[i].Err, cold[i].Err)
		}
		w, c := warm[i].Metrics, cold[i].Metrics
		if w.Cycles != c.Cycles || w.Ticks != c.Ticks || w.Power != c.Power {
			t.Fatalf("job %d: warm metrics %+v != cold %+v", i, w, c)
		}
	}
}

// TestSharedSessionPool: an explicit pool passed through Config.Sessions
// survives across campaigns, so a second sweep starts fully warm.
func TestSharedSessionPool(t *testing.T) {
	pool := salam.NewSessionPool()
	jobs := sweepJobs(t)
	first := Run(context.Background(), Config{Workers: 1, Sessions: pool}, jobs)
	second := Run(context.Background(), Config{Workers: 1, Sessions: pool}, jobs)
	for i := range first {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("job %d: %v / %v", i, first[i].Err, second[i].Err)
		}
		if first[i].Metrics.Cycles != second[i].Metrics.Cycles {
			t.Fatalf("job %d: cycles drifted across campaigns: %d vs %d",
				i, first[i].Metrics.Cycles, second[i].Metrics.Cycles)
		}
	}
	reused, created := pool.Stats()
	if created != 1 || reused != uint64(2*len(jobs)-1) {
		t.Fatalf("pool stats reused=%d created=%d over two sweeps of %d jobs", reused, created, len(jobs))
	}
}
