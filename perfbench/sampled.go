package main

import (
	"bytes"
	"fmt"
	"math"

	salam "gosalam"
	"gosalam/internal/snapshot"
)

// sampledRestore: interval-sampled RunKernel of the sampleable Large
// kernels, and checkpoint → Encode → Decode → Restore → Resume round
// trips from restore points placed late in each run, so the codec's share
// of a round trip is visible. The only workload that exercises the sample
// and snapshot layers.
type sampledRestore struct {
	items []kernelItem
	ck    []*checkpoint

	errPct, boundPct float64
	detailed         []float64
	imageBytes       float64
	tl               timelineTotals
}

var sampledSpecs = []kernelSpec{
	{Kernel: "gemm", Size: []int{96}},
	{Kernel: "md-knn", Size: []int{256, 16}},
	{Kernel: "nw", Size: []int{96}},
	{Kernel: "stencil2d", Size: []int{64, 64}},
}

var sampleSpec = salam.SampleSpec{K: 2, N: 32}

// restoreAt places the restore point at this share of the estimated run.
const restoreAt = 0.97

// checkpoint is one kernel's encoded restore point and the straight run
// a restored run must reproduce.
type checkpoint struct {
	sess     *salam.Session
	image    []byte
	estimate uint64 // sampled estimate of the kernel's cycles
	atCycle  uint64
	straight [2]uint64 // cycles, events of the uninterrupted run
}

func (w *sampledRestore) setup(b *bench) error {
	sums := roundSums{}
	if err := parseFixtures(b, sums); err != nil {
		return err
	}
	items, err := setupKernels(b, sampledSpecs, "spm", sums)
	if err != nil {
		return err
	}
	for _, it := range items {
		if _, reason, ok := salam.SampleEligible(it.k, it.opts); !ok {
			return fmt.Errorf("%s: not sampleable: %s", it.label, reason)
		}
	}
	w.items = items
	sums.flush(b)
	return nil
}

// prepare runs each kernel sampled once for its estimate, then straight
// through with a pause at the restore point to take and encode the
// checkpoint. The straight run is the reference for the sample error and
// for every restored run.
func (w *sampledRestore) prepare(b *bench) {
	w.ck = make([]*checkpoint, len(w.items))
	for i, it := range w.items {
		b.op("op:checkpoint "+it.label, func() error {
			ck, err := w.checkpoint(b, it)
			w.ck[i] = ck
			return err
		})
	}
}

func (w *sampledRestore) checkpoint(b *bench, it kernelItem) (*checkpoint, error) {
	sopts := it.opts
	sopts.Sample = sampleSpec
	est, _, err := timed(b, "salam.RunKernel", func() (*salam.Result, error) { return salam.RunKernel(it.k, sopts) })
	if err != nil {
		return nil, err
	}
	if !est.Estimated || est.Sample == nil {
		return nil, fmt.Errorf("%s: sampled run returned an exact result", it.label)
	}
	ck := &checkpoint{estimate: est.Cycles, atCycle: uint64(float64(est.Cycles) * restoreAt)}
	var d float64
	ck.sess, d, err = timed(b, "salam.NewSession", func() (*salam.Session, error) { return salam.NewSession(it.k, it.opts) })
	if err != nil {
		return nil, err
	}
	b.sample("salam.session_build_s", it.label, d)
	finished, d, err := timed(b, "salam.Session.RunToCycle", func() (bool, error) { return ck.sess.RunToCycle(it.opts, ck.atCycle) })
	if err != nil {
		return nil, err
	}
	if finished {
		return nil, fmt.Errorf("%s: finished before the restore point at cycle %d", it.label, ck.atCycle)
	}
	b.sample("salam.session_run_s", it.label, d)
	img, d, err := timed(b, "salam.Session.Checkpoint", ck.sess.Checkpoint)
	if err != nil {
		return nil, err
	}
	b.sample("snapshot.checkpoint_s", it.label, d)
	if ck.image, _, err = timed(b, "snapshot.Image.Encode", img.Encode); err != nil {
		return nil, err
	}
	res, _, err := timed(b, "salam.Session.Resume", func() (*salam.Result, error) { return ck.sess.Resume(it.opts) })
	if err != nil {
		return nil, err
	}
	ck.straight = [2]uint64{res.Cycles, res.EventsFired}

	// The estimate must fall within its own reported error bound.
	relErr := math.Abs(float64(est.Cycles)-float64(res.Cycles)) / float64(res.Cycles)
	if relErr > est.SampleError {
		return nil, fmt.Errorf("%s: estimate %d is %.4f%% off the exact %d, beyond its reported bound %.4f%%",
			it.label, est.Cycles, 100*relErr, res.Cycles, 100*est.SampleError)
	}
	w.errPct = math.Max(w.errPct, 100*relErr)
	w.boundPct = math.Max(w.boundPct, 100*est.SampleError)
	s := est.Sample
	w.detailed = append(w.detailed, ratio(float64(s.MeasuredOps), float64(s.MeasuredOps+s.RemainingOps)))
	w.imageBytes += float64(len(ck.image))
	return ck, nil
}

func (w *sampledRestore) pass(b *bench) {
	for i, it := range w.items {
		ck := w.ck[i]
		if ck == nil {
			continue
		}
		b.op("op:sampled "+it.label, func() error { return w.sampled(b, it, ck) })
		b.op("op:restore "+it.label, func() error { return w.restore(b, it, ck) })
	}
}

// sampled times one interval-sampled RunKernel; its estimate must repeat
// the one prepare took.
func (w *sampledRestore) sampled(b *bench, it kernelItem, ck *checkpoint) error {
	opts := it.opts
	opts.Sample = sampleSpec
	var lanes *engineLanes
	if b.tracing {
		lanes = newEngineLanes()
		opts.Timeline = lanes
	}
	res, d, err := timed(b, "salam.RunKernel", func() (*salam.Result, error) { return salam.RunKernel(it.k, opts) })
	if err != nil {
		return err
	}
	if res.Cycles != ck.estimate || res.Sample == nil {
		return fmt.Errorf("%s: sampled estimate %d differs from the first run's %d (traced pass: %v)", it.label, res.Cycles, ck.estimate, b.tracing)
	}
	b.sample("sample.run_s", it.label, d)
	b.sample("call_s", "sampled "+it.label, d)
	b.sample("sim_mcycles_per_s", "sampled "+it.label, float64(res.Sample.MeasuredCycles)/d/1e6)
	if lanes != nil && b.pass == 1 {
		w.tl.add(lanes.classes())
	}
	return nil
}

// restore times encoded image → Decode → Restore → Resume → verified
// result, which must equal the straight run exactly; then checks that the
// decoded image re-encodes to the same bytes.
func (w *sampledRestore) restore(b *bench, it kernelItem, ck *checkpoint) error {
	opts := it.opts
	if b.tracing {
		opts.Timeline = newEngineLanes()
	}
	var dDec, dRest, dRes float64
	res, d, err := timed(b, "op:round trip", func() (*salam.Result, error) {
		img, d, err := timed(b, "snapshot.Decode", func() (*snapshot.Image, error) { return snapshot.Decode(ck.image) })
		if err != nil {
			return nil, err
		}
		dDec = d
		if _, dRest, err = timed(b, "salam.Session.Restore", func() (any, error) { return nil, ck.sess.Restore(opts, img) }); err != nil {
			return nil, err
		}
		res, d, err := timed(b, "salam.Session.Resume", func() (*salam.Result, error) { return ck.sess.Resume(opts) })
		dRes = d
		return res, err
	})
	if err != nil {
		return err
	}
	if got := [2]uint64{res.Cycles, res.EventsFired}; got != ck.straight {
		return fmt.Errorf("%s: restored run gave cycles/events %v, straight run %v", it.label, got, ck.straight)
	}
	b.sample("snapshot.restore_run_s", it.label, d)
	b.sample("snapshot.decode_s", it.label, dDec)
	b.sample("snapshot.restore_s", it.label, dRest)
	b.sample("salam.resume_s", it.label, dRes)
	b.sample("call_s", "restore "+it.label, d)
	b.sample("sim_mcycles_per_s", "restore "+it.label, float64(res.Cycles-ck.atCycle)/d/1e6)

	img, err := snapshot.Decode(ck.image)
	if err != nil {
		return err
	}
	again, d, err := timed(b, "snapshot.Image.Encode", img.Encode)
	if err != nil {
		return err
	}
	b.sample("snapshot.encode_s", it.label, d)
	if !bytes.Equal(again, ck.image) {
		return fmt.Errorf("%s: decoded image re-encodes to different bytes", it.label)
	}
	return nil
}

func (w *sampledRestore) finish(b *bench) {
	b.set("sample.err_pct", w.errPct)
	b.set("sample.error_bound_pct", w.boundPct)
	b.set("sample.detailed_ops_ratio", mean(w.detailed))
	b.set("snapshot.image_bytes", w.imageBytes)
	w.tl.publish(b)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
