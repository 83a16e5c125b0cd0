package salam

// Checkpoint/restore orchestration. A Session checkpoint captures the full
// dynamic state of a mid-run single-accelerator system — event queue
// position, functional memory, statistics tree, engine reservation queue,
// memory-device queues and in-flight requests — as a versioned
// snapshot.Image. Restore lands a (possibly pooled, warm) session at the
// exact simulated point, and resuming is byte-identical to having run
// straight through: the event queue records only logical (when, pri, seq)
// coordinates, which totally order execution independent of heap layout.
//
// Soundness rests on an accounting invariant: every pending event must be
// claimed by exactly one owner — a device clock tick, a dynamic op's
// compute-latency arrival, or a memory request's scheduled completion.
// Checkpoint counts its claims against the queue's pending total and fails
// cleanly on any topology that schedules events it cannot claim (stream
// windows, MMR bus accesses), rather than producing an image that would
// silently drop events on restore.

import (
	"encoding/json"
	"fmt"
	"sort"

	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/kernels"
)

// fingerprintFor derives the configuration identity stamped into session
// images: the kernel, the workload seed and memory footprint, and every
// option that shapes the simulated schedule. Restore refuses an image whose
// fingerprint does not match the restoring session's options — landing a
// checkpoint under different knobs would silently diverge from the run the
// image came from. Observer-only options (SkipCheck, profiling, timeline
// tracing) are excluded: they never change the schedule, so a checkpoint
// taken under one may resume under another. The hardware profile is not
// fingerprinted (profiles are identified by pointer); images are only
// portable between sessions using the same profile object.
func fingerprintFor(k *kernels.Kernel, opts RunOpts, spaceSize int) string {
	doc := struct {
		Kernel                                  string
		Space                                   int
		Seed                                    int64
		Mem                                     MemKind
		Accel                                   AccelConfig
		SPMLatency, SPMBanks, SPMPortsPer       int
		CacheBytes, CacheLine, CacheAssoc, MSHR int
	}{
		Kernel: k.Name, Space: spaceSize, Seed: opts.Seed, Mem: opts.Mem,
		Accel:      opts.Accel,
		SPMLatency: opts.SPMLatency, SPMBanks: opts.SPMBanks, SPMPortsPer: opts.SPMPortsPer,
		CacheBytes: opts.CacheBytes, CacheLine: opts.CacheLine,
		CacheAssoc: opts.CacheAssoc, MSHR: opts.CacheMSHRs,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("salam: unfingerprintable options: %v", err))
	}
	return string(b)
}

// Checkpoint captures the full dynamic state of a run in progress (one
// paused by RunToCycle, or mid-sampling) as a restorable image. The
// session itself is left untouched and can keep running; call Resume to
// finish it. Encode the image for storage on disk.
func (s *Session) Checkpoint() (*snapshot.Image, error) {
	if s.inst == nil || !s.broken {
		return nil, fmt.Errorf("salam: session for %s has no run in progress to checkpoint", s.k.Name)
	}
	img := &snapshot.Image{
		Kind: snapshot.KindSession,
		Key:  s.fp,
		Queue: snapshot.Queue{
			Now: uint64(s.q.Now()), Seq: s.q.Seq(),
			Fired: s.q.Fired(), Pending: s.q.Pending(),
		},
		Space: append([]byte(nil), s.space.Data...),
	}
	var err error
	if img.Stats, err = sim.CaptureStats(s.stats); err != nil {
		return nil, err
	}

	ast, err := s.acc.CaptureState()
	if err != nil {
		return nil, err
	}
	img.Accel = &ast
	cst := s.comm.CaptureState()
	img.Comm = &cst

	// Claim accounting: every pending event must belong to a captured
	// owner, or restore could not rebuild the schedule.
	claimed := 0
	if ast.Clk.Armed {
		claimed++
	}
	for i := range ast.Ops {
		if ast.Ops[i].HasEv {
			claimed++
		}
	}
	if s.spm != nil {
		st, err := s.spm.CaptureState()
		if err != nil {
			return nil, err
		}
		img.SPM = &st
		if st.Clk.Armed {
			claimed++
		}
	}
	if s.cache != nil {
		st, err := s.cache.CaptureState()
		if err != nil {
			return nil, err
		}
		img.Cache = &st
		if st.Clk.Armed {
			claimed++
		}
	}
	if s.dram != nil {
		st, err := s.dram.CaptureState()
		if err != nil {
			return nil, err
		}
		img.DRAM = &st
		if st.Clk.Armed {
			claimed++
		}
	}

	// Scheduled request completions live on the event queue itself.
	var claimErr error
	s.q.ForEachPending(func(when sim.Tick, pri int32, seq uint64, obj sim.Firer) {
		r, ok := obj.(*mem.Request)
		if !ok {
			return
		}
		sr, err := mem.CaptureReq(r)
		if err != nil {
			if claimErr == nil {
				claimErr = err
			}
			return
		}
		sr.Sched = true
		sr.Ev = snapshot.Event{When: uint64(when), Pri: pri, Seq: seq}
		img.Sched = append(img.Sched, sr)
	})
	if claimErr != nil {
		return nil, claimErr
	}
	// ForEachPending walks heap order; images must not depend on it.
	sort.Slice(img.Sched, func(i, j int) bool { return img.Sched[i].Ev.Seq < img.Sched[j].Ev.Seq })
	claimed += len(img.Sched)
	if claimed != img.Queue.Pending {
		return nil, fmt.Errorf("salam: %s: %d pending events but only %d claimed by components — topology not snapshotable at this point",
			s.k.Name, img.Queue.Pending, claimed)
	}
	return img, nil
}

// Restore lands the session at the exact simulated point a Checkpoint
// captured: it rewinds the session like a warm run, replays the workload
// setup, then overwrites all dynamic state from the image — functional
// memory, statistics, queue position, engine state, device queues, and
// every in-flight request (rebound to its restored owner via the request's
// snapshot Owner tag). opts must describe the same configuration the
// image was taken under (enforced via the fingerprint). After a
// successful Restore the session is mid-run; continue with Resume, or
// take another Checkpoint (which reproduces the image byte for byte).
func (s *Session) Restore(opts RunOpts, img *snapshot.Image) error {
	if img == nil || img.Kind != snapshot.KindSession {
		return fmt.Errorf("salam: not a session image")
	}
	if want := fingerprintFor(s.k, opts, s.spaceSize); img.Key != want {
		return fmt.Errorf("salam: image was taken under a different kernel or configuration")
	}
	if img.Accel == nil || img.Comm == nil {
		return fmt.Errorf("salam: session image missing engine state")
	}
	if err := s.begin(opts); err != nil {
		return err
	}
	// From here the session is marked broken until a Resume completes; an
	// error below leaves it dropped by pools rather than half-restored.
	if len(img.Space) != len(s.space.Data) {
		return fmt.Errorf("salam: image memory is %d bytes, session has %d", len(img.Space), len(s.space.Data))
	}
	copy(s.space.Data, img.Space)
	if err := sim.RestoreStats(s.stats, img.Stats); err != nil {
		return err
	}
	s.q.RestoreAt(sim.Tick(img.Queue.Now), img.Queue.Seq, img.Queue.Fired)
	if err := s.acc.RestoreState(*img.Accel); err != nil {
		return err
	}
	if err := s.comm.RestoreState(*img.Comm); err != nil {
		return err
	}
	// The cache restores before SPM/DRAM: DRAM queues may hold cache fill
	// requests that rebind to restored MSHR entries.
	if s.cache != nil {
		if img.Cache == nil {
			return fmt.Errorf("salam: session image has no cache state")
		}
		if err := s.cache.RestoreState(*img.Cache, s.resolveReq); err != nil {
			return err
		}
	}
	if s.spm != nil {
		if img.SPM == nil {
			return fmt.Errorf("salam: session image has no scratchpad state")
		}
		if err := s.spm.RestoreState(*img.SPM, s.resolveReq); err != nil {
			return err
		}
	}
	if s.dram != nil {
		if img.DRAM == nil {
			return fmt.Errorf("salam: session image has no DRAM state")
		}
		if err := s.dram.RestoreState(*img.DRAM, s.resolveReq); err != nil {
			return err
		}
	}
	for _, sr := range img.Sched {
		r, err := s.resolveReq(sr)
		if err != nil {
			return err
		}
		r.Issued = sim.Tick(sr.Issued)
		mem.RestoreScheduled(s.q, s.space, r, sr.Ev)
	}
	if got := s.q.Pending(); got != img.Queue.Pending {
		return fmt.Errorf("salam: restore rebuilt %d pending events, image recorded %d", got, img.Queue.Pending)
	}
	s.runDone = !img.Accel.Running
	return nil
}

// resolveReq rebuilds a captured in-flight request, dispatching on its
// snapshot owner tag: engine requests rebind to their restored dynamic op,
// cache fills to their restored MSHR entry, and writebacks carry only
// bandwidth.
func (s *Session) resolveReq(sr snapshot.Req) (*mem.Request, error) {
	switch sr.Owner {
	case snapshot.OwnerEngine:
		return s.acc.RebuildRequest(sr)
	case snapshot.OwnerCacheFill:
		if s.cache == nil {
			return nil, fmt.Errorf("salam: cache-fill request in a cacheless session image")
		}
		return s.cache.RestoreFillReq(sr.OwnerID)
	case snapshot.OwnerWriteback:
		return mem.RebuildWriteback(sr), nil
	}
	return nil, fmt.Errorf("salam: request %#x has unknown snapshot owner %d", sr.Addr, sr.Owner)
}

// rejectInflight is the Resolver for quiescent SoC images, which by
// construction contain no in-flight requests.
func rejectInflight(sr snapshot.Req) (*mem.Request, error) {
	return nil, fmt.Errorf("salam: quiescent SoC image carries an in-flight request at %#x", sr.Addr)
}

// socFingerprint identifies an SoC's snapshot topology: the memory
// footprint plus every snapshot-registered component in registration
// order.
func socFingerprint(s *SoC) string {
	key := fmt.Sprintf("space=%d", len(s.Space.Data))
	for _, sn := range s.snaps {
		key += "|" + sn.name
	}
	return key
}

// Checkpoint captures a quiescent SoC — no events pending, typically
// right after a driver program completes — as a restorable image: queue
// position, physical memory, the statistics tree, and the persistent
// state of every snapshot-registered component (DRAM, scratchpads,
// accelerator engines and their MMRs). Mid-flight SoC state is not
// snapshotable (multi-accelerator topologies schedule events Checkpoint
// cannot claim); use Session checkpoints for mid-run capture.
func (s *SoC) Checkpoint() (*snapshot.Image, error) {
	if n := s.Q.Pending(); n != 0 {
		return nil, fmt.Errorf("salam: SoC checkpoint requires a quiescent system (%d events pending)", n)
	}
	img := &snapshot.Image{
		Kind:  snapshot.KindSoC,
		Key:   socFingerprint(s),
		Queue: snapshot.Queue{Now: uint64(s.Q.Now()), Seq: s.Q.Seq(), Fired: s.Q.Fired()},
		Space: append([]byte(nil), s.Space.Data...),
	}
	var err error
	if img.Stats, err = sim.CaptureStats(s.Stats); err != nil {
		return nil, err
	}
	for _, sn := range s.snaps {
		c, err := sn.capture()
		if err != nil {
			return nil, fmt.Errorf("salam: snapshotting %s: %w", sn.name, err)
		}
		img.Comps = append(img.Comps, c)
	}
	return img, nil
}

// Restore rewinds the SoC and lands it at a captured quiescent point. The
// target must have the same topology (same components registered in the
// same order) and itself be quiescent. Memory allocation cursors are not
// part of the image; rerun workload setup before launching new programs.
func (s *SoC) Restore(img *snapshot.Image) error {
	if img == nil || img.Kind != snapshot.KindSoC {
		return fmt.Errorf("salam: not a SoC image")
	}
	if want := socFingerprint(s); img.Key != want {
		return fmt.Errorf("salam: image was taken on a different SoC topology")
	}
	if n := s.Q.Pending(); n != 0 {
		return fmt.Errorf("salam: restore requires a quiescent SoC (%d events pending)", n)
	}
	if len(img.Space) != len(s.Space.Data) {
		return fmt.Errorf("salam: image memory is %d bytes, SoC has %d", len(img.Space), len(s.Space.Data))
	}
	if len(img.Comps) != len(s.snaps) {
		return fmt.Errorf("salam: image has %d components, SoC registers %d", len(img.Comps), len(s.snaps))
	}
	s.Reset()
	copy(s.Space.Data, img.Space)
	if err := sim.RestoreStats(s.Stats, img.Stats); err != nil {
		return err
	}
	s.Q.RestoreAt(sim.Tick(img.Queue.Now), img.Queue.Seq, img.Queue.Fired)
	for i := range s.snaps {
		if img.Comps[i].Name != s.snaps[i].name {
			return fmt.Errorf("salam: image component %d is %q, SoC expects %q", i, img.Comps[i].Name, s.snaps[i].name)
		}
		if err := s.snaps[i].restore(&img.Comps[i]); err != nil {
			return fmt.Errorf("salam: restoring %s: %w", s.snaps[i].name, err)
		}
	}
	return nil
}
