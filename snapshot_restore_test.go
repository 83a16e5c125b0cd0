package salam_test

// CI gate for checkpoint/restore: pausing a run mid-flight, capturing it,
// landing the image in a fresh session, and resuming must be byte-identical
// to having run straight through — same kernel cycles, same total ticks,
// same fired-event fingerprint, same statistics dump. This is enforced over
// the full golden kernel suite (like the traced-observer gate), over the
// cache/DRAM hierarchy, and for image byte-stability across a
// Checkpoint -> Restore -> Checkpoint round trip.

import (
	"bytes"
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/snapshot"
	"gosalam/kernels"
)

// statsDump renders the full statistics tree to bytes.
func statsDump(res *salam.Result) []byte {
	var buf bytes.Buffer
	res.Stats.Dump(&buf)
	return buf.Bytes()
}

// splitRun runs k to the given accelerator cycle, checkpoints, encodes and
// decodes the image (exercising the on-disk codec), restores it into a
// brand-new session, and resumes to completion.
func splitRun(t *testing.T, k *kernels.Kernel, opts salam.RunOpts, cycle uint64) (*salam.Result, *snapshot.Image) {
	t.Helper()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	if _, err := s.RunToCycle(opts, cycle); err != nil {
		t.Fatalf("%s: run to cycle %d: %v", k.Name, cycle, err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint at cycle %d: %v", k.Name, cycle, err)
	}
	enc, err := img.Encode()
	if err != nil {
		t.Fatalf("%s: encode: %v", k.Name, err)
	}
	dec, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", k.Name, err)
	}

	fresh, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatalf("%s: fresh session: %v", k.Name, err)
	}
	if err := fresh.Restore(opts, dec); err != nil {
		t.Fatalf("%s: restore at cycle %d: %v", k.Name, cycle, err)
	}
	res, err := fresh.Resume(opts)
	if err != nil {
		t.Fatalf("%s: resume: %v", k.Name, err)
	}
	return res, dec
}

// TestRestoreThenRunGoldenSuite is the restore-exactness CI gate over the
// full golden kernel set: a checkpoint taken mid-run and restored into a
// fresh session must finish with a byte-identical schedule and statistics
// tree. The resumed run also re-verifies the kernel's output against its
// golden model, so restored functional state is checked end to end.
func TestRestoreThenRunGoldenSuite(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		opts := salam.DefaultRunOpts()
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}
		want := pointOf(straight)
		wantStats := statsDump(straight)

		res, _ := splitRun(t, k, opts, straight.Cycles/2)
		if got := pointOf(res); got != want {
			t.Errorf("%s: restored run %+v != straight run %+v", k.Name, got, want)
		}
		if got := statsDump(res); !bytes.Equal(got, wantStats) {
			t.Errorf("%s: restored stats differ from straight run:\n--- restored\n%s\n--- straight\n%s", k.Name, got, wantStats)
		}
	}
}

// TestRestoreCacheHierarchy exercises the cache/DRAM restore path — MSHRs,
// in-flight fills, writebacks, DRAM bank state — at several points of the
// run, where different request populations are in flight.
func TestRestoreCacheHierarchy(t *testing.T) {
	for _, k := range []*kernels.Kernel{kernels.GEMM(8, 1), kernels.Stencil2D(12, 12)} {
		opts := salam.DefaultRunOpts()
		opts.Mem = salam.MemCache
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}
		want := pointOf(straight)
		wantStats := statsDump(straight)
		for _, frac := range []uint64{4, 2} {
			cycle := straight.Cycles / frac
			res, _ := splitRun(t, k, opts, cycle)
			if got := pointOf(res); got != want {
				t.Errorf("%s@%d: restored run %+v != straight run %+v", k.Name, cycle, got, want)
			}
			if got := statsDump(res); !bytes.Equal(got, wantStats) {
				t.Errorf("%s@%d: restored stats differ from straight run", k.Name, cycle)
			}
		}
	}
}

// TestCheckpointImageByteStability: re-checkpointing a restored session
// without advancing it must reproduce the image byte for byte, across the
// golden kernel set. This pins the codec and every capture path to
// deterministic output.
func TestCheckpointImageByteStability(t *testing.T) {
	for _, k := range kernels.All(kernels.Small) {
		opts := salam.DefaultRunOpts()
		straight, err := salam.RunKernel(k, opts)
		if err != nil {
			t.Fatalf("%s: straight run: %v", k.Name, err)
		}

		s, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunToCycle(opts, straight.Cycles/2); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		img1, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: first checkpoint: %v", k.Name, err)
		}
		b1, err := img1.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoint is read-only: a second capture of the same state must
		// be identical.
		img1b, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: re-checkpoint: %v", k.Name, err)
		}
		b1b, err := img1b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b1b) {
			t.Errorf("%s: two checkpoints of one paused session differ", k.Name)
		}

		fresh, err := salam.NewSession(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(opts, img1); err != nil {
			t.Fatalf("%s: restore: %v", k.Name, err)
		}
		img2, err := fresh.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint of restored session: %v", k.Name, err)
		}
		b2, err := img2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: checkpoint -> restore -> checkpoint image drifted", k.Name)
		}
	}
}

// TestRestoreRejectsMismatch: an image must not land in a session whose
// configuration or kernel differs from the one it was captured under.
func TestRestoreRejectsMismatch(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	straight, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, img := splitRun(t, k, opts, straight.Cycles/2)

	other := opts
	other.Seed = opts.Seed + 1
	s, err := salam.NewSession(k, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(other, img); err == nil {
		t.Fatal("restore accepted an image from a different seed")
	} else if !strings.Contains(err.Error(), "different") {
		t.Fatalf("unexpected error: %v", err)
	}

	s2, err := salam.NewSession(kernels.FFT(64), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(opts, img); err == nil {
		t.Fatal("restore accepted an image from a different kernel")
	}
}

// TestCheckpointRequiresRunInProgress: checkpointing an idle session is a
// clean error, not a garbage image.
func TestCheckpointRequiresRunInProgress(t *testing.T) {
	k := kernels.GEMM(8, 1)
	opts := salam.DefaultRunOpts()
	s, err := salam.NewSession(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of an idle session succeeded")
	}
	if _, err := s.Run(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a completed session succeeded")
	}
}

// TestSoCQuiescentCheckpoint: a quiescent SoC (driver program complete)
// checkpoints, restores into a freshly built identical topology, and
// re-checkpoints byte-identically; a busy SoC is refused.
func TestSoCQuiescentCheckpoint(t *testing.T) {
	build := func() (*salam.SoC, *salam.AccelNode, uint64, uint64) {
		soc := salam.NewSoC(16)
		spm := soc.AddSPM("spm", 32<<10, 2, 4, 4)
		k := kernels.ReLU(64)
		node, err := soc.AddAccel("relu", k.F, salam.AccelOpts{SharedSPM: spm})
		if err != nil {
			t.Fatal(err)
		}
		base := spm.Range().Base
		in, out := base, base+64*8
		for i := 0; i < 64; i++ {
			soc.Space.WriteF64(in+uint64(i*8), float64(i%7)-3)
		}
		return soc, node, in, out
	}

	socA, nodeA, inA, outA := build()
	prog := append(salam.StartAccel(nodeA.MMRBase, []uint64{inA, outA}, true),
		salam.WaitIRQ{Line: nodeA.IRQLine})
	if _, err := socA.RunHost(prog); err != nil {
		t.Fatal(err)
	}
	socA.Run()
	imgA, err := socA.Checkpoint()
	if err != nil {
		t.Fatalf("quiescent checkpoint: %v", err)
	}
	bA, err := imgA.Encode()
	if err != nil {
		t.Fatal(err)
	}

	socB, _, _, _ := build()
	if err := socB.Restore(imgA); err != nil {
		t.Fatalf("restore: %v", err)
	}
	imgB, err := socB.Checkpoint()
	if err != nil {
		t.Fatalf("re-checkpoint: %v", err)
	}
	bB, err := imgB.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bA, bB) {
		t.Fatal("SoC checkpoint -> restore -> checkpoint image drifted")
	}
	// Restored physical memory carries the computed results.
	for i := 0; i < 64; i++ {
		want := socA.Space.ReadF64(outA + uint64(i*8))
		if got := socB.Space.ReadF64(outA + uint64(i*8)); got != want {
			t.Fatalf("restored out[%d] = %g, want %g", i, got, want)
		}
	}
}

// TestSoCRestoreThenRun: a quiescent SoC checkpoint restored into a
// freshly built SoC must replay the next driver program exactly as the
// original system does when it simply keeps running — same fingerprint,
// same statistics. Every component with state that outlives a program (a
// warm LLC above all) has to be captured for this to hold.
func TestSoCRestoreThenRun(t *testing.T) {
	for _, topo := range socTopologies {
		t.Run(topo.name, func(t *testing.T) {
			soc, run := topo.build(t)
			run()
			img, err := soc.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			straight := run()
			straightStats := statsOf(soc)

			fresh, freshRun := topo.build(t)
			if err := fresh.Restore(img); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := freshRun(); got != straight {
				t.Fatalf("restored run fingerprint = %v, straight run = %v", got, straight)
			}
			if s := statsOf(fresh); s != straightStats {
				t.Fatalf("restored stats diverged from straight run:\nrestored:\n%s\nstraight:\n%s", s, straightStats)
			}
		})
	}
}

// TestSessionPoolDropsPanicPoisonedSession is the satellite regression for
// dirty-session poisoning: a panic raised while begin is rewriting session
// state (between the warm rewind and Reconfigure) must leave the session
// marked broken, and the pool's release path must refuse to recycle it.
func TestSessionPoolDropsPanicPoisonedSession(t *testing.T) {
	k := kernels.GEMMTree(8)
	opts := salam.DefaultRunOpts()
	pool := salam.NewSessionPool()

	s, err := pool.AcquireForTest(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(opts); err != nil {
		t.Fatal(err)
	}

	s.SetTestHookReconfigure(func() { panic("injected reconfigure fault") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		_, _ = s.Run(opts)
	}()
	if !s.IsBroken() {
		t.Fatal("session not marked broken after a panic during reconfigure")
	}
	pool.ReleaseForTest(s)
	if n := pool.IdleForTest(); n != 0 {
		t.Fatalf("pool recycled a poisoned session (%d idle)", n)
	}

	// The pool must hand out a fresh, working session afterwards.
	s2, err := pool.AcquireForTest(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s {
		t.Fatal("pool handed the poisoned session back out")
	}
	if _, err := s2.Run(opts); err != nil {
		t.Fatalf("replacement session: %v", err)
	}
}
