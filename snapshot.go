package salam

// Checkpoint/restore entry points. Both system kinds snapshot through
// their component registry (registry.go); this file adds only what
// differs: a Session captures mid-run and fingerprints the run's options,
// an SoC captures at quiescence and fingerprints its topology. Restoring
// and resuming is byte-identical to having run straight through: the event
// queue records only logical (when, pri, seq) coordinates, which totally
// order execution independent of heap layout.

import (
	"encoding/json"
	"fmt"

	"gosalam/internal/mem"
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
	return s.checkpoint(s.fp)
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
	// Match before begin, so a foreign image leaves the session usable.
	if err := s.match(img, fingerprintFor(s.k, opts, len(s.Space.Data))); err != nil {
		return err
	}
	if err := s.begin(opts); err != nil {
		return err
	}
	// From here the session is marked broken until a Resume completes; an
	// error below leaves it dropped by pools rather than half-restored.
	if err := s.restore(img, s.resolveReq); err != nil {
		return err
	}
	s.runDone = !s.acc.Busy()
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
// footprint plus every snapshot-capable component in registration order.
func socFingerprint(s *SoC) string {
	key := fmt.Sprintf("space=%d", len(s.Space.Data))
	for _, c := range s.snapshotted() {
		key += "|" + c.name
	}
	return key
}

// Checkpoint captures a quiescent SoC — no events pending, typically
// right after a driver program completes — as a restorable image: queue
// position, physical memory, the statistics tree, and the persistent
// state of every snapshot-capable component (DRAM, LLC, scratchpads,
// accelerator engines and their MMRs). Mid-flight SoC state is not
// snapshotable (hosts and DMAs keep progress no component captures); use
// Session checkpoints for mid-run capture.
func (s *SoC) Checkpoint() (*snapshot.Image, error) {
	if n := s.Q.Pending(); n != 0 {
		return nil, fmt.Errorf("salam: SoC checkpoint requires a quiescent system (%d events pending)", n)
	}
	return s.checkpoint(socFingerprint(s))
}

// Restore rewinds the SoC and lands it at a captured quiescent point. The
// target must have the same topology (same components registered in the
// same order) and itself be quiescent. Memory allocation cursors are not
// part of the image; rerun workload setup before launching new programs.
func (s *SoC) Restore(img *snapshot.Image) error {
	if n := s.Q.Pending(); n != 0 {
		return fmt.Errorf("salam: restore requires a quiescent SoC (%d events pending)", n)
	}
	if err := s.match(img, socFingerprint(s)); err != nil {
		return err
	}
	s.reset()
	return s.restore(img, rejectInflight)
}
