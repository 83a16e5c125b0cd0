package core

import (
	"testing"

	"gosalam/ir"
	"gosalam/kernels"
)

// warmRig is a rig rerun the way a warm session reruns its system: the
// queue, stats, SPM and interface are reset and the accelerator is
// Reconfigure'd onto the same CDFG before every run. Its completion
// callbacks are bound once, so a run itself allocates only what the
// simulated system does.
type warmRig struct {
	*rig
	done    bool
	notDone func() bool
}

func newWarmRig(tb testing.TB, f *ir.Function) *warmRig {
	w := &warmRig{rig: newRig(tb, f, DefaultConfig(), nil)}
	w.acc.OnDone = func() { w.done = true }
	w.notDone = func() bool { return !w.done }
	return w
}

// run executes one warm invocation and reports whether it finished.
func (w *warmRig) run(args []uint64) bool {
	w.q.Reset()
	w.stats.Reset()
	w.spm.Reset()
	w.comm.Reset()
	w.acc.Reconfigure(w.acc.CDFG, w.acc.Cfg)
	w.done = false
	w.acc.Start(args)
	w.q.RunWhile(w.notDone)
	return w.done
}

// The steady-state cycle loop allocates nothing per dynamic op: once a
// warm engine's op pool, dependence lists and position sets have grown to
// a kernel's working size, a run allocates the same whether it executes
// 64 or 512 loop iterations.
func TestAcceleratorSteadyStateAllocs(t *testing.T) {
	f, setup := buildVecAdd(t)
	w := newWarmRig(t, f)
	allocs := func(n int) float64 {
		args := setup(w.space, n)
		if !w.run(args) { // warm-up: grow pools to this size
			t.Fatalf("n=%d: accelerator never finished", n)
		}
		return testing.AllocsPerRun(5, func() {
			if !w.run(args) {
				t.Fatalf("n=%d: accelerator never finished", n)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("allocs per warm run: n=64 %.0f, n=512 %.0f", small, large)
	if large > small {
		t.Fatalf("warm vecadd allocates %.0f objects at n=512 but %.0f at n=64: the cycle loop allocates per dynamic op", large, small)
	}
}

// BenchmarkAcceleratorCycle measures the engine's host cost per simulated
// cycle on a fixed GEMM CDFG over an SPM, warm-started every iteration.
func BenchmarkAcceleratorCycle(b *testing.B) {
	k := kernels.GEMM(16, 1)
	w := newWarmRig(b, k.F)
	inst := k.Setup(w.space, 1)
	if !w.run(inst.Args) {
		b.Fatal("accelerator never finished")
	}
	if err := inst.Check(w.space); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		w.run(inst.Args)
		cycles += w.acc.LastKernelCycles()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
