// Package campaign runs many independent accelerator simulations as one
// batch: the paper's design-space-exploration workflow (Sec. IV-D,
// Figs. 13-15) is a sweep of hundreds of deterministic single-accelerator
// runs, and this package owns "run many simulations" as a first-class
// concern the way a serving stack owns a job queue.
//
// The engine is a fixed worker pool draining a job queue. Results flow
// through a channel into an ordered collector, so Run always returns
// outcomes in submission order regardless of completion order — a parallel
// sweep renders byte-identical CSV to a serial one. Each job is fault
// isolated: a panicking simulation becomes that job's error (not a crashed
// campaign), and a per-job timeout cancels a runaway via context without
// sinking its siblings. An optional content-addressed cache persists each
// job's metrics as JSON keyed by the hash of the kernel identity and run
// options, so re-running a sweep after editing one knob only simulates the
// changed points.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	salam "gosalam"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/kernels"
)

// Job is one simulation in a campaign.
type Job struct {
	// ID is a human-readable label for progress lines ("fig13 spm fu=4 p=8").
	ID string
	// Kernel is the accelerator workload to simulate.
	Kernel *kernels.Kernel
	// KernelKey identifies the kernel's construction for cache keying
	// (name plus size/preset, e.g. "gemm_tree/n=8"). Two jobs with equal
	// KernelKey and equal Opts must be the same simulation. Empty falls
	// back to Kernel.Name, which is only safe when the name pins the size.
	KernelKey string
	// Opts configures the run; part of the cache key.
	Opts salam.RunOpts
	// Timeout overrides Config.Timeout for this job (0 = inherit).
	Timeout time.Duration
	// Probe extracts derived metrics from a live result (occupancies,
	// stall fractions, ...) into Metrics.Extra so they survive caching.
	// It runs on the worker goroutine right after a successful simulation.
	Probe func(*salam.Result) map[string]float64
	// ProbeKey versions the Probe computation in the cache key; bump it
	// when the probe's meaning changes so stale extras are not replayed.
	ProbeKey string
}

// Metrics is the JSON-serializable projection of a run that the cache
// stores and every sweep consumer reads: core timing/power plus the job
// probe's derived values.
type Metrics struct {
	Cycles uint64            `json:"cycles"`
	Ticks  sim.Tick          `json:"ticks"`
	Power  salam.PowerReport `json:"power"`
	// Extra holds the job Probe's derived metrics (may be nil).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Estimated marks Cycles as an interval-sampling extrapolation
	// (RunOpts.Sample) with the given relative ErrorBound. Estimated
	// metrics never anchor pruning or best-point election: both rely on
	// exact cycle comparisons.
	Estimated  bool    `json:"estimated,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// Outcome is one job's result, delivered in submission order.
type Outcome struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the spec that produced this outcome.
	Job Job
	// Metrics is non-nil on success (fresh or cached). Live simulation
	// state aliases a pooled system the next job rewinds, so it never
	// escapes a job: derive what a sweep needs from it through Job.Probe.
	Metrics *Metrics
	// Err is non-nil when the job failed (simulation error, panic, or
	// timeout); sibling jobs are unaffected.
	Err error
	// Cached marks a cache hit (no simulation ran).
	Cached bool
	// Skipped marks a job this process did not own under Config.Shard:
	// another shard pointed at the same Store simulates it. No simulation
	// ran and Metrics is nil; MergeRows (or salam-serve -merge) reassembles
	// the full sweep from the shared store afterwards.
	Skipped bool
	// Pruned marks a job skipped by static lower-bound pruning: its
	// provable cycle bound already exceeded a measured sibling, so its
	// dynamic result could not have been the best point. No simulation
	// ran and Metrics is nil.
	Pruned bool
	// StaticLB is the provable cycle-count lower bound Config.Prune
	// reported for this job (0 when pruning is off or no bound exists).
	StaticLB uint64
	// Wall is the job's wall-clock time on the worker.
	Wall time.Duration
}

// ErrDrained marks a job that was never handed to a worker because
// Config.Drain closed first — the caller shed it gracefully rather than
// failing it. Resubmitting the same job later is always safe.
var ErrDrained = errors.New("campaign: drained before this job started")

// PanicError wraps a panic recovered from a simulation so one crashed job
// cannot sink the campaign.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("simulation panicked: %v", e.Value)
}

// Runner simulates one job; the default wraps salam.RunKernelCtx.
// Tests inject counting, panicking, or slow runners through Config.Runner.
type Runner func(ctx context.Context, k *kernels.Kernel, opts salam.RunOpts) (*salam.Result, error)

// Config parameterizes a campaign.
type Config struct {
	// Workers sizes the pool (<=0 means GOMAXPROCS).
	Workers int
	// Timeout is the default per-job timeout (0 = none).
	Timeout time.Duration
	// Cache enables content-addressed result caching (nil = off). The
	// standard backend is the filesystem Cache (OpenCache), whose atomic
	// writes make one directory safe to share across processes.
	Cache Store
	// Progress receives per-job completion events from the collector
	// goroutine (nil = silent). Events arrive in completion order.
	Progress Reporter
	// Stats, when non-nil, gets a "campaign" child group with job
	// counters wired into the existing sim stats framework.
	Stats *sim.Group
	// Runner overrides the simulation function (nil = warm-start pooled
	// sessions). Tests pass salam.RunKernelCtx here as the cold-start
	// reference the pooled path must match byte for byte.
	Runner Runner
	// Sessions, when non-nil, is the session pool warm-started jobs draw
	// from. Share one pool across campaigns to start later sweeps warm;
	// nil creates a pool scoped to the Run call. Ignored with a custom
	// Runner.
	Sessions *salam.SessionPool
	// TraceBest, when non-empty, re-runs the sweep's best design point —
	// lowest cycle count among successful outcomes, earliest index on ties
	// — after the campaign with timeline tracing attached, and writes the
	// Perfetto-loadable trace_event JSON to this path. The re-run is a cold
	// one-shot (pooled sessions are untouched) and, because tracing is
	// observer-effect-free, reproduces the sweep's metrics exactly. A trace
	// failure degrades to a Progress warning, not a campaign error.
	TraceBest string
	// Shard, when non-nil, restricts this Run to the jobs it owns: a job
	// is simulated only when its content-addressed key (JobKey) maps to
	// Shard.Index under ShardOf; every other job resolves immediately with
	// Outcome.Skipped set. Ownership is a pure function of job content and
	// (Index, Count), so n processes configured as shards 0..n-1 over one
	// job list partition it exactly — zero duplicated simulation — and a
	// shared Store plus MergeRows reassembles the full sweep byte-
	// identically. Combined with Prune, the pilot is elected over the FULL
	// job list (a pure function of job content), so every shard prunes
	// against the same measurement and the union of owned rows stays
	// byte-identical to an unsharded pruned run; a shard that does not own
	// the pilot still simulates it once for the measurement (a cache hit
	// when another shard persisted it first), which is the one permitted
	// duplication.
	Shard *Shard
	// Drain, when non-nil, is a soft stop: once it is closed, jobs not yet
	// handed to a worker resolve with ErrDrained while in-flight jobs run
	// to completion (and persist to the cache) — the graceful-shutdown
	// half of the ctx story, which by contrast cancels in-flight work too.
	Drain <-chan struct{}
	// Prune, when non-nil, maps a job to a provable lower bound on its
	// simulated cycle count (ok=false when no bound is available; such
	// jobs always run). Before the pool starts, the job with the smallest
	// bound runs first — the pilot — and every job whose bound strictly
	// exceeds the pilot's measured cycles is skipped with Outcome.Pruned
	// set: its dynamic result is provably worse than an already-measured
	// point, so the sweep's best point is unchanged. The pilot choice and
	// the pruned set depend only on the bounds and the deterministic
	// pilot result, never on worker scheduling, so pruned sweeps render
	// byte-identical output at any worker count. StaticPrune is the
	// standard hook.
	Prune func(Job) (lb uint64, ok bool)
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// jobRunner executes one job and its probe as a unit. The probe runs at a
// point where the Result's pooled aliases are still safe to read — for the
// warm path that means while the session is held, before it returns to the
// pool (a probe that ran after release raced the next job's warm-start
// state rewind on the same session).
type jobRunner func(ctx context.Context, job Job) (res *salam.Result, extra map[string]float64, err error)

// probeAfter runs the probe once the runner returned — correct for custom
// runners, whose Results alias nothing shared.
func probeAfter(run Runner) jobRunner {
	return func(ctx context.Context, job Job) (*salam.Result, map[string]float64, error) {
		res, err := run(ctx, job.Kernel, job.Opts)
		if err != nil || job.Probe == nil {
			return res, nil, err
		}
		return res, job.Probe(res), nil
	}
}

// runner resolves the effective simulation function. The default is
// warm-start reuse through a session pool: each job runs in a pooled
// system whose static CDFG comes from the shared elaboration cache and
// whose dynamic state is rewound between design points. The returned pool
// is non-nil only on that default path (for reuse stats).
func (c Config) runner() (run jobRunner, pool *salam.SessionPool) {
	if c.Runner != nil {
		return probeAfter(c.Runner), nil
	}
	pool = c.Sessions
	if pool == nil {
		pool = salam.NewSessionPool()
	}
	return func(ctx context.Context, job Job) (*salam.Result, map[string]float64, error) {
		var extra map[string]float64
		res, err := pool.RunCtxWith(ctx, job.Kernel, job.Opts, func(r *salam.Result) {
			if job.Probe != nil {
				extra = job.Probe(r)
			}
		})
		return res, extra, err
	}, pool
}

// counters is the campaign-level stat group (updated only on the
// collector goroutine, so plain sim scalars are safe).
type counters struct {
	total, ok, failed, cached *sim.Scalar
	reused, built             *sim.Scalar
	pruned, skipped           *sim.Scalar
	simulated                 *sim.Scalar
	wallMS                    *sim.Distribution
}

func newCounters(root *sim.Group) *counters {
	if root == nil {
		return nil
	}
	g := root.Child("campaign")
	return &counters{
		total:     g.Scalar("jobs", "jobs submitted"),
		ok:        g.Scalar("jobs_ok", "jobs completed successfully"),
		failed:    g.Scalar("jobs_failed", "jobs that errored, panicked, or timed out"),
		cached:    g.Scalar("jobs_cached", "jobs served from the result cache"),
		reused:    g.Scalar("sessions_reused", "warm-start runs on a pooled system"),
		built:     g.Scalar("sessions_built", "runs that had to build a system"),
		pruned:    g.Scalar("points_pruned", "design points skipped by static lower-bound pruning"),
		skipped:   g.Scalar("points_skipped", "design points owned by another shard"),
		simulated: g.Scalar("jobs_simulated", "jobs that actually ran a simulation (not cached, pruned, or skipped)"),
		wallMS:    g.Distribution("job_wall_ms", "per-job wall-clock (ms)"),
	}
}

func (c *counters) observe(o Outcome) {
	if c == nil {
		return
	}
	switch {
	case o.Pruned:
		c.pruned.Inc(1)
		return // no simulation ran: neither ok nor failed, no wall sample
	case o.Skipped:
		c.skipped.Inc(1)
		return // another shard's job: nothing ran here
	case o.Err != nil:
		c.failed.Inc(1)
	case o.Cached:
		c.cached.Inc(1)
		c.ok.Inc(1)
	default:
		c.ok.Inc(1)
		c.simulated.Inc(1)
	}
	c.wallMS.Sample(float64(o.Wall) / float64(time.Millisecond))
}

// Run executes jobs on the worker pool and returns their outcomes in
// submission order. Run never returns an error itself: per-job failures
// are recorded in the corresponding Outcome.Err, and FirstError scans for
// callers that want fail-on-any semantics. Canceling ctx stops feeding new
// jobs and cancels in-flight ones; their outcomes carry the context error.
func Run(ctx context.Context, cfg Config, jobs []Job) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outcomes := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return outcomes
	}
	stats := newCounters(cfg.Stats)
	if stats != nil {
		stats.total.Set(float64(len(jobs)))
	}
	if cfg.Progress != nil {
		cfg.Progress.Start(len(jobs))
	}
	run, pool := cfg.runner()
	var poolReused0, poolCreated0 uint64
	if pool != nil {
		poolReused0, poolCreated0 = pool.Stats()
	}

	// deliver records one resolved outcome; every job passes through here
	// exactly once, whether it ran on a worker, ran as the pilot, or was
	// pruned without running.
	done := 0
	deliver := func(o Outcome) {
		outcomes[o.Index] = o
		done++
		stats.observe(o)
		if cfg.Progress != nil {
			cfg.Progress.JobDone(o, done, len(jobs))
		}
	}

	resolved := make([]bool, len(jobs))

	// Shard filter: resolve jobs owned by other shards before anything can
	// simulate. Ownership is content-addressed (ShardOf over JobKey), so
	// the partition is identical in every process regardless of worker
	// count or scheduling. A job that cannot be keyed belongs to shard 0,
	// so exactly one shard reports its keying error.
	if cfg.Shard != nil && cfg.Shard.Count > 1 {
		for i, j := range jobs {
			owner := 0
			if key, err := JobKey(j); err == nil {
				owner = ShardOf(key, cfg.Shard.Count)
			}
			if owner != cfg.Shard.Index {
				resolved[i] = true
				deliver(Outcome{Index: i, Job: j, Skipped: true})
			}
		}
	}

	// Static pruning phase: bound every job, run the smallest-bound pilot
	// on this goroutine, then skip jobs whose bound proves them worse than
	// the pilot's measurement. Everything here is a pure function of the
	// job list, so the surviving set is identical at any worker count —
	// and, because the pilot is elected over the full list rather than the
	// owned subset, identical in every shard: each shard prunes against
	// the same pilot measurement, so the union of owned rows matches an
	// unsharded pruned run byte for byte. A shard that does not own the
	// pilot runs it for the measurement alone (the cache dedups the work
	// when another shard persisted it first) and keeps its Skipped row.
	var lbs []uint64
	var lbKnown []bool
	if cfg.Prune != nil {
		lbs = make([]uint64, len(jobs))
		lbKnown = make([]bool, len(jobs))
		pilot := -1
		for i, j := range jobs {
			if lb, ok := cfg.Prune(j); ok {
				lbs[i], lbKnown[i] = lb, true
				if pilot < 0 || lb < lbs[pilot] {
					pilot = i // ties keep the lowest index
				}
			}
		}
		if pilot >= 0 {
			po := runJob(ctx, cfg, run, pilot, jobs[pilot])
			po.StaticLB = lbs[pilot]
			if !resolved[pilot] {
				resolved[pilot] = true
				deliver(po)
			}
			// An estimated pilot measurement cannot anchor pruning: the
			// static bounds are exact, the extrapolation is not, and a
			// too-low estimate would prune points that beat the truth.
			if po.Err == nil && po.Metrics != nil && !po.Metrics.Estimated {
				best := po.Metrics.Cycles
				for i := range jobs {
					if !resolved[i] && lbKnown[i] && lbs[i] > best {
						resolved[i] = true
						deliver(Outcome{Index: i, Job: jobs[i], Pruned: true, StaticLB: lbs[i]})
					}
				}
			}
		}
	}

	type item struct {
		idx int
		job Job
	}
	work := make(chan item)
	results := make(chan Outcome)

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				results <- runJob(ctx, cfg, run, it.idx, it.job)
			}
		}()
	}
	go func() {
		defer close(work)
		var drain <-chan struct{} // nil channel: select case never fires
		if cfg.Drain != nil {
			drain = cfg.Drain
		}
		// fail resolves every not-yet-submitted job with err; in-flight
		// jobs are untouched and still deliver their own outcomes.
		fail := func(from int, err error) {
			for k := from; k < len(jobs); k++ {
				if !resolved[k] {
					results <- Outcome{Index: k, Job: jobs[k], Err: err}
				}
			}
		}
		for i, j := range jobs {
			if resolved[i] {
				continue
			}
			select {
			case work <- item{i, j}:
			case <-ctx.Done():
				// Unsubmitted jobs fail with the context error so the
				// caller can tell "not run" from "ran and failed".
				fail(i, ctx.Err())
				return
			case <-drain:
				// Soft stop: unsubmitted jobs are marked drained; workers
				// finish (and persist) what they already hold.
				fail(i, ErrDrained)
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered collector: outcomes land by index; progress and stats see
	// them in completion order on this single goroutine. Exactly one
	// outcome arrives per unresolved job (from a worker, or from the
	// feeder for jobs never submitted after a cancel), and results closes
	// after the last.
	for o := range results {
		if lbKnown != nil && lbKnown[o.Index] {
			o.StaticLB = lbs[o.Index]
		}
		deliver(o)
	}
	if cfg.Progress != nil {
		cfg.Progress.Finish()
	}
	if stats != nil && pool != nil {
		reused, created := pool.Stats()
		stats.reused.Set(float64(reused - poolReused0))
		stats.built.Set(float64(created - poolCreated0))
	}
	if cfg.TraceBest != "" {
		traceBest(ctx, cfg, outcomes)
	}
	return outcomes
}

// traceBest re-simulates the campaign's best point with a JSON timeline
// recorder and writes the trace. Cold re-run on purpose: the trace must
// not perturb pooled sessions, and determinism guarantees the replay
// matches the sweep's measurement cycle for cycle.
func traceBest(ctx context.Context, cfg Config, outcomes []Outcome) {
	warn := func(msg string) {
		if cfg.Progress != nil {
			cfg.Progress.Warn(msg)
		}
	}
	best := -1
	for i, o := range outcomes {
		if o.Err != nil || o.Pruned || o.Metrics == nil || o.Metrics.Estimated {
			// Estimated cycle counts cannot elect the best point: the
			// traced replay is exact and would silently disagree.
			continue
		}
		if best < 0 || o.Metrics.Cycles < outcomes[best].Metrics.Cycles {
			best = i
		}
	}
	if best < 0 {
		warn("trace-best: no successful outcome to trace")
		return
	}
	job := outcomes[best].Job
	rec := timeline.NewJSON()
	opts := job.Opts
	opts.Timeline = rec
	res, err := salam.RunKernelCtx(ctx, job.Kernel, opts)
	if err != nil {
		warn(fmt.Sprintf("trace-best: re-running %q: %v", job.ID, err))
		return
	}
	if res.Cycles != outcomes[best].Metrics.Cycles {
		warn(fmt.Sprintf("trace-best: traced replay of %q measured %d cycles, sweep measured %d",
			job.ID, res.Cycles, outcomes[best].Metrics.Cycles))
	}
	f, err := os.Create(cfg.TraceBest)
	if err != nil {
		warn(fmt.Sprintf("trace-best: %v", err))
		return
	}
	werr := rec.Write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		warn(fmt.Sprintf("trace-best: writing %s: %v", cfg.TraceBest, werr))
	}
}

// runJob executes one job with cache lookup, panic recovery, and timeout.
func runJob(ctx context.Context, cfg Config, run jobRunner, idx int, job Job) (out Outcome) {
	start := time.Now()
	out = Outcome{Index: idx, Job: job}
	defer func() { out.Wall = time.Since(start) }()

	var key string
	if cfg.Cache != nil {
		var err error
		key, err = JobKey(job)
		if err != nil {
			out.Err = fmt.Errorf("campaign: keying job %q: %w", job.ID, err)
			return out
		}
		if m, ok := cfg.Cache.Get(key); ok {
			out.Metrics = m
			out.Cached = true
			return out
		}
	}

	jctx := ctx
	timeout := job.Timeout
	if timeout == 0 {
		timeout = cfg.Timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	res, extra, err := runIsolated(jctx, run, job)
	if err != nil {
		// Attribute timeouts precisely: the simulation reports a generic
		// cancel, the deadline is the campaign's.
		if jctx.Err() != nil && ctx.Err() == nil {
			err = fmt.Errorf("campaign: job %q: %w", job.ID, jctx.Err())
		}
		out.Err = err
		return out
	}
	m := &Metrics{Cycles: res.Cycles, Ticks: res.Ticks, Power: res.Power, Extra: extra,
		Estimated: res.Estimated, ErrorBound: res.SampleError}
	out.Metrics = m
	if cfg.Cache != nil {
		if err := cfg.Cache.Put(key, job, m); err != nil {
			// A cache write failure degrades to "not cached", it does not
			// fail the job; surface it through the progress reporter.
			out.Err = nil
			if cfg.Progress != nil {
				cfg.Progress.Warn(fmt.Sprintf("cache write for %q failed: %v", job.ID, err))
			}
		}
	}
	return out
}

// runIsolated invokes the runner (simulation plus probe) with panic
// recovery, so a crashing probe is attributed to its job like a crashing
// simulation instead of sinking the worker.
func runIsolated(ctx context.Context, run jobRunner, job Job) (res *salam.Result, extra map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			res, extra, err = nil, nil, &PanicError{Value: r, Stack: buf}
		}
	}()
	return run(ctx, job)
}

// StaticPrune is the standard Config.Prune hook: the static analyzer's
// provable cycle lower bound for the job's kernel under its run options
// (see internal/analysis). Elaboration failures yield no bound, so broken
// jobs still run and report their real error.
func StaticPrune(j Job) (uint64, bool) {
	return salam.StaticLowerBound(j.Kernel, j.Opts)
}

// StaticEnergy is the provable dynamic-energy lower bound (total pJ) for
// the job's kernel under its run options — the static_energy column of
// campaign rows. Elaboration failures yield no bound.
func StaticEnergy(j Job) (float64, bool) {
	if j.Kernel == nil {
		return 0, false
	}
	se, err := salam.StaticEnergyLowerBound(j.Kernel, j.Opts)
	if err != nil {
		return 0, false
	}
	return se.TotalPJ, true
}

// FirstError returns the first failed outcome's error in submission order
// (nil when every job succeeded) — the fail-fast view for callers like the
// experiments, which abort a whole table on any failed point.
func FirstError(outcomes []Outcome) error {
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("job %d (%s): %w", o.Index, o.Job.ID, o.Err)
		}
	}
	return nil
}
