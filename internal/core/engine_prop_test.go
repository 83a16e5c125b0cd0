package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gosalam/internal/hw"
	"gosalam/ir"
)

// genRandomKernel builds a random but well-formed kernel mixing loops,
// conditionals, integer/FP arithmetic and memory traffic over two buffers.
func genRandomKernel(rng *rand.Rand) (*ir.Function, int) {
	m := ir.NewModule("rand")
	b := ir.NewBuilder(m)
	f := b.Func("rand", ir.Void, ir.P("a", ir.Ptr(ir.F64)), ir.P("x", ir.Ptr(ir.I64)))
	a, x := f.Params[0], f.Params[1]
	n := 8 + rng.Intn(24)

	// values available for use as FP/int operands
	fvals := []ir.Value{ir.F64c(1.5), ir.F64c(-0.25)}
	ivals := []ir.Value{ir.I64c(3), ir.I64c(-7)}

	b.Loop("i", ir.I64c(0), ir.I64c(int64(n)), 1, func(iv ir.Value) {
		ivals2 := append(append([]ir.Value{}, ivals...), iv)
		pa := b.GEP(a, "pa", iv)
		px := b.GEP(x, "px", iv)
		fv := b.Load(pa, "fv")
		iu := b.Load(px, "iu")
		fvals2 := append(append([]ir.Value{}, fvals...), fv)
		ivals2 = append(ivals2, iu)

		steps := 2 + rng.Intn(6)
		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0:
				v := b.FAdd(pick(rng, fvals2), pick(rng, fvals2), "f")
				fvals2 = append(fvals2, v)
			case 1:
				v := b.FMul(pick(rng, fvals2), pick(rng, fvals2), "g")
				fvals2 = append(fvals2, v)
			case 2:
				v := b.Add(pick(rng, ivals2), pick(rng, ivals2), "k")
				ivals2 = append(ivals2, v)
			case 3:
				v := b.Xor(pick(rng, ivals2), pick(rng, ivals2), "m")
				ivals2 = append(ivals2, v)
			case 4:
				c := b.ICmp(ir.ISLT, pick(rng, ivals2), pick(rng, ivals2), "c")
				v := b.Select(c, pick(rng, ivals2), pick(rng, ivals2), "s")
				ivals2 = append(ivals2, v)
			}
		}
		// Conditional store keeps control flow data-dependent.
		cond := b.ICmp(ir.ISGE, pick(rng, ivals2), ir.I64c(0), "cc")
		fOut := pick(rng, fvals2)
		iOut := pick(rng, ivals2)
		b.IfElse(cond, "w", func() {
			b.Store(fOut, pa)
		}, func() {
			b.Store(iOut, px)
		})
	})
	b.Ret(nil)
	return f, n
}

func pick(rng *rand.Rand, vals []ir.Value) ir.Value {
	return vals[rng.Intn(len(vals))]
}

// The execute-in-execute invariant: for random kernels, random data and
// random device configurations, the cycle-accurate engine leaves memory in
// exactly the state the functional interpreter does.
func TestEngineInterpreterEquivalenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f, n := genRandomKernel(rng)
		if err := ir.Verify(f); err != nil {
			t.Logf("generated invalid IR: %v", err)
			return false
		}
		ref := ir.NewFlatMem(0, 1<<16)
		refArgs := setupWith(ref, n, seed)
		if _, _, err := ir.Exec(f, refArgs, ref, nil); err != nil {
			t.Logf("interp: %v", err)
			return false
		}

		cfg := DefaultConfig()
		cfg.ReadPorts = 1 + rng.Intn(4)
		cfg.WritePorts = 1 + rng.Intn(4)
		cfg.ResQueueSize = 24 + rng.Intn(200)
		cfg.PipelineLoops = rng.Intn(2) == 0
		cfg.ConservativeMemOrder = rng.Intn(2) == 0

		limits := map[hw.FUClass]int{hw.FUFPAdder: 1 + rng.Intn(3)}
		r := newRig(t, f, cfg, limits)
		args := setupWith(r.space, n, seed)
		// Check the engine's derived bookkeeping at every event boundary,
		// and once, at a random mid-run cycle, that a checkpoint restored
		// into a fresh engine rebuilds the same position sets.
		restoreAt := uint64(1 + rng.Intn(4*n))
		restored := false
		done := false
		r.acc.OnDone = func() { done = true }
		r.acc.Start(args)
		r.q.RunWhile(func() bool {
			if err := checkEngineSets(r.acc); err != nil {
				t.Logf("seed %d, cycle %d: %v", seed, r.acc.Cycles, err)
				return false
			}
			if !restored && r.acc.Cycles >= restoreAt && !done {
				restored = true
				if err := checkRestoredSets(t, r, f, cfg, limits); err != nil {
					t.Logf("seed %d, cycle %d: %v", seed, r.acc.Cycles, err)
					return false
				}
			}
			return !done
		})
		if !done {
			t.Logf("seed %d: accelerator never finished", seed)
			return false
		}

		for i := range ref.Data {
			if ref.Data[i] != r.space.Data[i] {
				t.Logf("seed %d: memory diverges at byte %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkEngineSets compares the engine's ready and arrived position sets
// against a brute-force rescan of the reservation queue: a position is
// ready exactly when its op waits with every operand resolved, arrived
// exactly when its op is in flight with its completion delivered, and the
// counters agree with the sets.
func checkEngineSets(a *Accelerator) error {
	if n := a.ready.count(); n != a.readyCount {
		return fmt.Errorf("popcount(ready) = %d, readyCount = %d", n, a.readyCount)
	}
	if n := a.arrived.count(); n != a.arrivals {
		return fmt.Errorf("popcount(arrived) = %d, arrivals = %d", n, a.arrivals)
	}
	if i := a.ready.next(len(a.resQ)); i >= 0 {
		return fmt.Errorf("ready bit %d beyond queue length %d", i, len(a.resQ))
	}
	if i := a.arrived.next(len(a.resQ)); i >= 0 {
		return fmt.Errorf("arrived bit %d beyond queue length %d", i, len(a.resQ))
	}
	for qi, d := range a.resQ {
		if int(d.qi) != qi {
			return fmt.Errorf("resQ[%d] records position %d", qi, d.qi)
		}
		isReady := a.ready.next(qi) == qi
		if want := d.state == stWaiting && d.waitingOn == 0; isReady != want {
			return fmt.Errorf("resQ[%d] (state %d, waitingOn %d): ready bit %v", qi, d.state, d.waitingOn, isReady)
		}
		isArrived := a.arrived.next(qi) == qi
		if want := d.state == stInflight && d.arrived; isArrived != want {
			return fmt.Errorf("resQ[%d] (state %d, arrived %v): arrived bit %v", qi, d.state, d.arrived, isArrived)
		}
	}
	return nil
}

// checkRestoredSets captures the rig's engine mid-run, restores the image
// into a fresh engine over the same kernel and configuration, and requires
// the rebuilt position sets to equal the live ones.
func checkRestoredSets(t *testing.T, r *rig, f *ir.Function, cfg AccelConfig, limits map[hw.FUClass]int) error {
	st, err := r.acc.CaptureState()
	if err != nil {
		return err
	}
	r2 := newRig(t, f, cfg, limits)
	r2.q.RestoreAt(r.q.Now(), r.q.Seq(), r.q.Fired())
	if err := r2.acc.RestoreState(st); err != nil {
		return err
	}
	if err := checkEngineSets(r2.acc); err != nil {
		return fmt.Errorf("restored engine: %v", err)
	}
	a, b := r.acc, r2.acc
	if !sameSet(a.ready, b.ready) || !sameSet(a.arrived, b.arrived) {
		return fmt.Errorf("restored sets differ: ready %x/%x arrived %x/%x",
			a.ready, b.ready, a.arrived, b.arrived)
	}
	return nil
}

// sameSet compares two position sets, ignoring trailing empty words (set
// capacity depends on the queue's high-water mark, not its contents).
func sameSet(x, y bitset) bool {
	for len(x) > 0 && x[len(x)-1] == 0 {
		x = x[:len(x)-1]
	}
	for len(y) > 0 && y[len(y)-1] == 0 {
		y = y[:len(y)-1]
	}
	return slices.Equal(x, y)
}

// setupWith deterministically initializes the two buffers from a seed.
func setupWith(mem *ir.FlatMem, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
	aA := mem.AllocFor(ir.F64, n)
	xA := mem.AllocFor(ir.I64, n)
	for i := 0; i < n; i++ {
		mem.WriteF64(aA+uint64(i*8), rng.Float64()*8-4)
		mem.WriteI64(xA+uint64(i*8), rng.Int63n(64)-32)
	}
	return []uint64{aA, xA}
}
