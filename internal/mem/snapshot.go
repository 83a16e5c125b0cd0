package mem

import (
	"fmt"

	"gosalam/internal/sim"
	"gosalam/internal/snapshot"
	"gosalam/ir"
)

// This file is the mem half of checkpoint/restore. Requests are captured
// wherever they currently live — a device queue, an MSHR waiting list, or
// the event queue as a scheduled completion — identified by their Owner
// tag. Restore materializes each captured request through a Resolver that
// rebinds the owner's Done callback, then puts it back exactly where it
// was. Read Data is never captured: Fire fills read buffers at fire time,
// so only the (Addr, Size) coordinates matter before then.

// Resolver rebuilds a live *Request (with the correct Done callback and,
// for writes, payload buffer) from its captured form. The root package
// supplies one that dispatches on the Owner tag.
type Resolver func(snapshot.Req) (*Request, error)

// CaptureReq captures one in-flight request. It fails on untagged
// requests: without an owner no restore could rebind the callback.
func CaptureReq(r *Request) (snapshot.Req, error) {
	if r.Owner == snapshot.OwnerNone {
		return snapshot.Req{}, fmt.Errorf("mem: request %#x (size %d) has no snapshot owner", r.Addr, r.Size)
	}
	sr := snapshot.Req{
		Owner: r.Owner, OwnerID: r.OwnerID,
		Addr: r.Addr, Size: r.Size, Write: r.Write, TimingOnly: r.TimingOnly,
		Issued: uint64(r.Issued),
	}
	if r.Write && !r.TimingOnly {
		sr.Data = append([]byte(nil), r.Data...)
	}
	return sr, nil
}

// materialize resolves a captured request and re-stamps the fields every
// owner shares.
func materialize(sr snapshot.Req, resolve Resolver) (*Request, error) {
	r, err := resolve(sr)
	if err != nil {
		return nil, err
	}
	r.Issued = sim.Tick(sr.Issued)
	return r, nil
}

// RebuildWriteback reconstructs a timing-only cache writeback; it carries
// no callback and no functional payload, only bandwidth.
func RebuildWriteback(sr snapshot.Req) *Request {
	wb := NewWrite(sr.Addr, make([]byte, sr.Size), nil)
	wb.TimingOnly = true
	wb.Owner = snapshot.OwnerWriteback
	return wb
}

// RestoreScheduled re-inserts a request's completion event with its
// captured coordinates, bound to the backing store exactly as complete
// would have bound it.
func RestoreScheduled(q *sim.EventQueue, space *ir.FlatMem, r *Request, ev snapshot.Event) {
	r.space = space
	q.ScheduleRestoredObj(ev, r)
}

// capture snapshots a request FIFO in order.
func (q *reqQueue) capture() ([]snapshot.Req, error) {
	out := make([]snapshot.Req, 0, q.n)
	for i := 0; i < q.n; i++ {
		sr, err := CaptureReq(q.items[(q.head+i)%len(q.items)])
		if err != nil {
			return nil, err
		}
		out = append(out, sr)
	}
	return out, nil
}

// restore refills a freshly reset FIFO from captured requests.
func (q *reqQueue) restore(reqs []snapshot.Req, resolve Resolver) error {
	for _, sr := range reqs {
		r, err := materialize(sr, resolve)
		if err != nil {
			return err
		}
		q.push(r)
	}
	return nil
}

// CaptureState snapshots the scratchpad's dynamic state.
func (s *Scratchpad) CaptureState() (snapshot.SPM, error) {
	st := snapshot.SPM{Clk: s.CaptureClock(), Queues: make([][]snapshot.Req, len(s.queues))}
	for b := range s.queues {
		reqs, err := s.queues[b].capture()
		if err != nil {
			return snapshot.SPM{}, fmt.Errorf("%s bank %d: %w", s.Name(), b, err)
		}
		st.Queues[b] = reqs
	}
	return st, nil
}

// RestoreState rewinds a freshly Reset scratchpad into a captured state.
func (s *Scratchpad) RestoreState(st snapshot.SPM, resolve Resolver) error {
	if len(st.Queues) != len(s.queues) {
		return fmt.Errorf("mem: %s: image has %d banks, scratchpad has %d", s.Name(), len(st.Queues), len(s.queues))
	}
	for b := range st.Queues {
		if err := s.queues[b].restore(st.Queues[b], resolve); err != nil {
			return err
		}
	}
	s.RestoreClock(st.Clk)
	return nil
}

// CaptureState snapshots the cache's dynamic state: line tags, LRU clock,
// the incoming queue, and the MSHR file (in allocation order) with each
// entry's waiting requests. The in-flight fill requests themselves are
// captured wherever they live, as OwnerCacheFill requests.
func (c *Cache) CaptureState() (snapshot.Cache, error) {
	st := snapshot.Cache{Clk: c.CaptureClock(), LRUTick: c.lruTick, Sets: make([][]snapshot.CacheLine, len(c.sets))}
	for i := range c.sets {
		lines := c.sets[i].lines
		st.Sets[i] = make([]snapshot.CacheLine, len(lines))
		for j, ln := range lines {
			st.Sets[i][j] = snapshot.CacheLine{Tag: ln.tag, Valid: ln.valid, Dirty: ln.dirty, LRU: ln.lru}
		}
	}
	var err error
	if st.Incoming, err = c.incoming.capture(); err != nil {
		return snapshot.Cache{}, fmt.Errorf("%s incoming: %w", c.Name(), err)
	}
	for _, e := range c.mshrOrder {
		m := snapshot.MSHR{LineAddr: e.lineAddr}
		for _, r := range e.waiting {
			sr, cerr := CaptureReq(r)
			if cerr != nil {
				return snapshot.Cache{}, fmt.Errorf("%s mshr %#x: %w", c.Name(), e.lineAddr, cerr)
			}
			m.Waiting = append(m.Waiting, sr)
		}
		st.MSHRs = append(st.MSHRs, m)
	}
	return st, nil
}

// RestoreState rewinds a freshly Reset cache into a captured state. MSHR
// entries are rebuilt first so RestoreFillReq can rebind in-flight fills
// that other devices or the event queue still hold.
func (c *Cache) RestoreState(st snapshot.Cache, resolve Resolver) error {
	if len(st.Sets) != len(c.sets) {
		return fmt.Errorf("mem: %s: image has %d sets, cache has %d", c.Name(), len(st.Sets), len(c.sets))
	}
	for i := range st.Sets {
		if len(st.Sets[i]) != len(c.sets[i].lines) {
			return fmt.Errorf("mem: %s: image set %d has %d ways, cache has %d", c.Name(), i, len(st.Sets[i]), len(c.sets[i].lines))
		}
		for j, ln := range st.Sets[i] {
			c.sets[i].lines[j] = cacheLine{tag: ln.Tag, valid: ln.Valid, dirty: ln.Dirty, lru: ln.LRU}
		}
	}
	c.lruTick = st.LRUTick
	for _, m := range st.MSHRs {
		e := &mshrEntry{lineAddr: m.LineAddr}
		for _, sr := range m.Waiting {
			r, err := materialize(sr, resolve)
			if err != nil {
				return err
			}
			e.waiting = append(e.waiting, r)
		}
		c.mshr[m.LineAddr] = e
		c.mshrOrder = append(c.mshrOrder, e)
	}
	if err := c.incoming.restore(st.Incoming, resolve); err != nil {
		return err
	}
	c.RestoreClock(st.Clk)
	return nil
}

// RestoreFillReq rebuilds the in-flight fill request for a restored MSHR
// entry, rebinding its completion to the entry.
func (c *Cache) RestoreFillReq(lineAddr uint64) (*Request, error) {
	e, ok := c.mshr[lineAddr]
	if !ok {
		return nil, fmt.Errorf("mem: %s: fill for line %#x has no restored MSHR entry", c.Name(), lineAddr)
	}
	return c.newFill(e), nil
}

// CaptureState snapshots the DRAM's dynamic state.
func (d *DRAM) CaptureState() (snapshot.DRAM, error) {
	st := snapshot.DRAM{
		Clk:     d.CaptureClock(),
		OpenRow: append([]uint64(nil), d.openRow...),
		Budget:  d.budget,
	}
	var err error
	if st.Queue, err = d.queue.capture(); err != nil {
		return snapshot.DRAM{}, fmt.Errorf("%s queue: %w", d.Name(), err)
	}
	return st, nil
}

// RestoreState rewinds a freshly Reset DRAM into a captured state.
func (d *DRAM) RestoreState(st snapshot.DRAM, resolve Resolver) error {
	if len(st.OpenRow) != len(d.openRow) {
		return fmt.Errorf("mem: %s: image has %d banks, dram has %d", d.Name(), len(st.OpenRow), len(d.openRow))
	}
	copy(d.openRow, st.OpenRow)
	d.budget = st.Budget
	if err := d.queue.restore(st.Queue, resolve); err != nil {
		return err
	}
	d.RestoreClock(st.Clk)
	return nil
}

// Regs returns a copy of the register file (for snapshots).
func (m *MMRBlock) Regs() []uint64 { return append([]uint64(nil), m.regs...) }

// RestoreRegs overwrites the register file from a snapshot.
func (m *MMRBlock) RestoreRegs(regs []uint64) error {
	if len(regs) != len(m.regs) {
		return fmt.Errorf("mem: %s: image has %d registers, block has %d", m.name, len(regs), len(m.regs))
	}
	copy(m.regs, regs)
	return nil
}

// CaptureState snapshots an idle DMA: its register file and the channel
// pacing point, which outlives a transfer. Transfer progress is not part
// of the format, so a busy DMA is refused.
func (d *BlockDMA) CaptureState() (snapshot.DMA, error) {
	if d.busy {
		return snapshot.DMA{}, fmt.Errorf("mem: %s: transfer in flight", d.name)
	}
	return snapshot.DMA{NextIssue: uint64(d.nextIssue), MMR: d.MMR.Regs()}, nil
}

// RestoreState rewinds a freshly Reset DMA into a captured idle state.
func (d *BlockDMA) RestoreState(st snapshot.DMA) error {
	d.nextIssue = sim.Tick(st.NextIssue)
	return d.MMR.RestoreRegs(st.MMR)
}
