package salam

// The component registry: the one reset, timeline and checkpoint path
// shared by Session and SoC. A system owns its event queue, statistics
// root and backing store through the registry, and every stateful
// component registers exactly once, at construction, with every hook it
// supports. Warm rewind, tracing and snapshots then walk the same ordered
// list, so a component cannot be covered by one and missed by another.
//
// Checkpoint soundness rests on an accounting invariant: every pending
// event must be claimed by exactly one owner — a device clock tick, a
// dynamic op's compute-latency arrival, or a memory request's scheduled
// completion. checkpoint counts the claims against the queue's pending
// total and fails cleanly on any state that schedules events it cannot
// claim (stream windows, MMR bus accesses), rather than producing an image
// that would silently drop events on restore.

import (
	"fmt"
	"sort"

	"gosalam/internal/core"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// component is one registered part of a system. Every hook is optional.
type component struct {
	name string
	// reset rewinds dynamic state to the cold state; structural wiring
	// (topology, address maps, IRQ lines) survives.
	reset func()
	// attach binds a timeline recorder; nil detaches.
	attach func(timeline.Recorder)
	// capture fills the component's snapshot state and reports how many
	// pending events it owns.
	capture func(*snapshot.Component) (claims int, err error)
	// restore overwrites dynamic state from a captured component,
	// rebinding in-flight requests through resolve.
	restore func(*snapshot.Component, mem.Resolver) error
}

// registry owns a system's shared state and its components in
// registration order (deterministic). Restore replays that order, so a
// system captured mid-run registers a cache before the memory below it:
// the memory's queues may hold fill requests that rebind to the cache's
// restored MSHRs. (Quiescent SoC images carry no in-flight requests, so
// an LLC added after DRAM is safe.)
type registry struct {
	Q     *sim.EventQueue
	Stats *sim.Group
	Space *ir.FlatMem

	tl    timeline.Recorder // attached recorder; nil = tracing off
	comps []component
}

func newRegistry(stats string, spaceBytes int) registry {
	return registry{Q: sim.NewEventQueue(), Stats: sim.NewGroup(stats), Space: ir.NewFlatMem(0, spaceBytes)}
}

// add registers a component, binding the attached recorder at once so
// registration order relative to setTimeline does not matter.
func (r *registry) add(c component) {
	r.comps = append(r.comps, c)
	if c.attach != nil && r.tl != nil {
		c.attach(r.tl)
	}
}

// reset rewinds the queue, stats, backing store and every component.
func (r *registry) reset() {
	r.Q.Reset()
	r.Stats.Reset()
	r.Space.Reset()
	for _, c := range r.comps {
		if c.reset != nil {
			c.reset()
		}
	}
}

// setTimeline binds rec to the queue and every traced component.
func (r *registry) setTimeline(rec timeline.Recorder) {
	r.tl = rec
	r.Q.AttachTimeline(rec)
	for _, c := range r.comps {
		if c.attach != nil {
			c.attach(rec)
		}
	}
}

// snapshotted lists the components with snapshot hooks, in registration
// order: the layout of an image's Comps.
func (r *registry) snapshotted() []component {
	var out []component
	for _, c := range r.comps {
		if c.capture != nil {
			out = append(out, c)
		}
	}
	return out
}

// checkpoint captures the system as an image stamped with key. It fails
// unless every pending event is claimed by a component or is a scheduled
// request completion.
func (r *registry) checkpoint(key string) (*snapshot.Image, error) {
	img := &snapshot.Image{
		Key: key,
		Queue: snapshot.Queue{
			Now: uint64(r.Q.Now()), Seq: r.Q.Seq(),
			Fired: r.Q.Fired(), Pending: r.Q.Pending(),
		},
		Space: append([]byte(nil), r.Space.Data...),
	}
	var err error
	if img.Stats, err = sim.CaptureStats(r.Stats); err != nil {
		return nil, err
	}
	claimed := 0
	for _, c := range r.snapshotted() {
		sc := snapshot.Component{Name: c.name}
		n, err := c.capture(&sc)
		if err != nil {
			return nil, fmt.Errorf("salam: snapshotting %s: %w", c.name, err)
		}
		img.Comps = append(img.Comps, sc)
		claimed += n
	}

	// Scheduled request completions live on the event queue itself.
	var claimErr error
	r.Q.ForEachPending(func(when sim.Tick, pri int32, seq uint64, obj sim.Firer) {
		req, ok := obj.(*mem.Request)
		if !ok || claimErr != nil {
			return
		}
		sr, err := mem.CaptureReq(req)
		if err != nil {
			claimErr = err
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
		return nil, fmt.Errorf("salam: %d pending events but only %d claimed by components — not snapshotable at this point",
			img.Queue.Pending, claimed)
	}
	return img, nil
}

// match checks, before any state is touched, that img was captured under
// key from a system registering the same snapshot components in the same
// order.
func (r *registry) match(img *snapshot.Image, key string) error {
	if img == nil {
		return fmt.Errorf("salam: nil snapshot image")
	}
	if img.Key != key {
		return fmt.Errorf("salam: image was taken under a different configuration or topology")
	}
	if len(img.Space) != len(r.Space.Data) {
		return fmt.Errorf("salam: image memory is %d bytes, system has %d", len(img.Space), len(r.Space.Data))
	}
	snaps := r.snapshotted()
	if len(img.Comps) != len(snaps) {
		return fmt.Errorf("salam: image has %d components, system registers %d", len(img.Comps), len(snaps))
	}
	for i, c := range snaps {
		if img.Comps[i].Name != c.name {
			return fmt.Errorf("salam: image component %d is %q, system registers %q", i, img.Comps[i].Name, c.name)
		}
	}
	return nil
}

// restore lands a matched image on a rewound system: backing store,
// stats, queue position, every component in registration order, then the
// scheduled request completions, rebuilt through resolve.
func (r *registry) restore(img *snapshot.Image, resolve mem.Resolver) error {
	copy(r.Space.Data, img.Space)
	if err := sim.RestoreStats(r.Stats, img.Stats); err != nil {
		return err
	}
	r.Q.RestoreAt(sim.Tick(img.Queue.Now), img.Queue.Seq, img.Queue.Fired)
	for i, c := range r.snapshotted() {
		if err := c.restore(&img.Comps[i], resolve); err != nil {
			return fmt.Errorf("salam: restoring %s: %w", c.name, err)
		}
	}
	for _, sr := range img.Sched {
		req, err := resolve(sr)
		if err != nil {
			return err
		}
		req.Issued = sim.Tick(sr.Issued)
		mem.RestoreScheduled(r.Q, r.Space, req, sr.Ev)
	}
	if got := r.Q.Pending(); got != img.Queue.Pending {
		return fmt.Errorf("salam: restore rebuilt %d pending events, image recorded %d", got, img.Queue.Pending)
	}
	return nil
}

// armed counts a captured clock's pending tick.
func armed(c snapshot.Clock) int {
	if c.Armed {
		return 1
	}
	return 0
}

// errNoState reports a captured component missing its kind's state.
func errNoState(kind string) error { return fmt.Errorf("component carries no %s state", kind) }

// accelComponent registers an accelerator engine with its communications
// interface. reset is the system's per-run rewind of the pair: an SoC
// re-arms the engine with its build-time configuration, a Session rewinds
// only the interface because begin reconfigures the engine per run.
func accelComponent(name string, acc *core.Accelerator, comm *core.CommInterface, reset func()) component {
	return component{
		name: name, reset: reset, attach: acc.AttachTimeline,
		capture: func(c *snapshot.Component) (int, error) {
			ast, err := acc.CaptureState()
			if err != nil {
				return 0, err
			}
			cst := comm.CaptureState()
			c.Accel, c.Comm = &ast, &cst
			n := armed(ast.Clk)
			for i := range ast.Ops {
				if ast.Ops[i].HasEv {
					n++
				}
			}
			return n, nil
		},
		restore: func(c *snapshot.Component, _ mem.Resolver) error {
			if c.Accel == nil || c.Comm == nil {
				return errNoState("engine")
			}
			if err := acc.RestoreState(*c.Accel); err != nil {
				return err
			}
			return comm.RestoreState(*c.Comm)
		},
	}
}

func spmComponent(name string, spm *mem.Scratchpad) component {
	return component{
		name: name, reset: spm.Reset, attach: spm.AttachTimeline,
		capture: func(c *snapshot.Component) (int, error) {
			st, err := spm.CaptureState()
			c.SPM = &st
			return armed(st.Clk), err
		},
		restore: func(c *snapshot.Component, resolve mem.Resolver) error {
			if c.SPM == nil {
				return errNoState("scratchpad")
			}
			return spm.RestoreState(*c.SPM, resolve)
		},
	}
}

func cacheComponent(name string, cache *mem.Cache) component {
	return component{
		name: name, reset: cache.Reset, attach: cache.AttachTimeline,
		capture: func(c *snapshot.Component) (int, error) {
			st, err := cache.CaptureState()
			c.Cache = &st
			return armed(st.Clk), err
		},
		restore: func(c *snapshot.Component, resolve mem.Resolver) error {
			if c.Cache == nil {
				return errNoState("cache")
			}
			return cache.RestoreState(*c.Cache, resolve)
		},
	}
}

func dramComponent(name string, dram *mem.DRAM) component {
	return component{
		name: name, reset: dram.Reset, attach: dram.AttachTimeline,
		capture: func(c *snapshot.Component) (int, error) {
			st, err := dram.CaptureState()
			c.DRAM = &st
			return armed(st.Clk), err
		},
		restore: func(c *snapshot.Component, resolve mem.Resolver) error {
			if c.DRAM == nil {
				return errNoState("DRAM")
			}
			return dram.RestoreState(*c.DRAM, resolve)
		},
	}
}

func dmaComponent(name string, dma *mem.BlockDMA) component {
	return component{
		name: name, reset: dma.Reset, attach: dma.AttachTimeline,
		capture: func(c *snapshot.Component) (int, error) {
			st, err := dma.CaptureState()
			c.DMA = &st
			return 0, err
		},
		restore: func(c *snapshot.Component, _ mem.Resolver) error {
			if c.DMA == nil {
				return errNoState("DMA")
			}
			return dma.RestoreState(*c.DMA)
		},
	}
}
