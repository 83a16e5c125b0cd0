package salam

import (
	"fmt"

	"gosalam/internal/core"
	"gosalam/internal/cpu"
	"gosalam/internal/hw"
	"gosalam/internal/mem"
	"gosalam/internal/sim"
	"gosalam/internal/soccfg"
	"gosalam/internal/timeline"
	"gosalam/ir"
)

// Driver-program building blocks, re-exported so SoC users need only this
// package. A driver program is a []DriverOp executed in order by the host.
type (
	// DriverOp is one host driver step.
	DriverOp = cpu.Op
	// WriteReg writes a 64-bit value to a bus address.
	WriteReg = cpu.WriteReg
	// ReadReg reads a 64-bit value from a bus address.
	ReadReg = cpu.ReadReg
	// PollReg polls a register until (value & Mask) == Want.
	PollReg = cpu.PollReg
	// WaitIRQ blocks on an interrupt line.
	WaitIRQ = cpu.WaitIRQ
	// Memcpy copies bytes through the host, word by word.
	Memcpy = cpu.Memcpy
	// HostCompute burns host cycles.
	HostCompute = cpu.Compute
)

// StartAccel builds the driver prologue that programs an accelerator's
// argument MMRs and sets its start (and optionally IRQ-enable) bit.
func StartAccel(mmrBase uint64, args []uint64, irqEnable bool) []DriverOp {
	return cpu.StartAccel(mmrBase, args, irqEnable)
}

// StartDMA builds the driver sequence that programs a block DMA.
func StartDMA(mmrBase uint64, src, dst, n uint64, burst int, irqEnable bool) []DriverOp {
	return cpu.StartDMA(mmrBase, src, dst, n, burst, irqEnable)
}

// SoC is a full system: host CPU, interrupt controller, global crossbar,
// DRAM, and any number of accelerators, DMAs, scratchpads and stream
// links — the Fig. 1 architecture. Components allocate MMR ranges and
// interrupt lines automatically.
type SoC struct {
	registry

	SysClk *sim.ClockDomain
	AccClk float64 // accelerator clock MHz default

	Xbar *mem.Crossbar
	DRAM *mem.DRAM
	GIC  *cpu.GIC
	Host *cpu.Host

	nextMMR uint64
	nextSPM uint64
	spmEnd  uint64
	nextIRQ int
	nextWin uint64

	// bufs tracks stream buffers already registered, so a buffer shared
	// between a link and a DMA registers once.
	bufs []*mem.StreamBuffer
}

// AccelNode bundles one accelerator with its system plumbing.
type AccelNode struct {
	Acc     *core.Accelerator
	Comm    *core.CommInterface
	SPM     *mem.Scratchpad
	MMRBase uint64
	IRQLine int
}

// NewSoC builds a system with dramMB of DRAM plus the scratchpad arena
// (soccfg.SPMArenaBytes), a 1.2 GHz host, and a 1 GHz system interconnect.
func NewSoC(dramMB int) *SoC { return NewSoCXbar(dramMB, 8) }

// NewSoCXbar is NewSoC with an explicit global-crossbar width
// (requests per cycle); declarative configs route through this.
func NewSoCXbar(dramMB, xbarWidth int) *SoC {
	dramBytes := uint64(dramMB) << 20
	s := &SoC{
		registry: newRegistry("soc", int(dramBytes+soccfg.SPMArenaBytes)),
		SysClk:   sim.NewClockDomainMHz("sys", 1000),
		AccClk:   100,
	}
	s.nextSPM = dramBytes
	s.spmEnd = dramBytes + soccfg.SPMArenaBytes
	s.nextMMR = 0xF0000000
	s.nextWin = 0xE0000000

	if xbarWidth <= 0 {
		xbarWidth = 8
	}
	s.Xbar = mem.NewCrossbar("xbar", s.Q, s.SysClk, 1, xbarWidth, s.Stats)
	s.DRAM = mem.NewDRAM("dram", s.Q, s.SysClk, s.Space,
		mem.AddrRange{Base: 0, Size: dramBytes}, s.Stats)
	s.Xbar.SetDefault(s.DRAM)
	s.GIC = cpu.NewGIC(s.Stats)
	hostClk := sim.NewClockDomainMHz("host", 1200)
	s.Host = cpu.NewHost("host", s.Q, hostClk, s.Xbar, s.GIC, s.Stats)
	s.add(component{name: "xbar", reset: s.Xbar.Reset, attach: s.Xbar.AttachTimeline})
	s.add(dramComponent("dram", s.DRAM))
	s.add(component{name: "gic", reset: s.GIC.Reset})
	s.add(component{name: "host", reset: s.Host.Reset})
	return s
}

// addBuffer registers a stream buffer once, even when it is shared
// between a StreamLink and a stream DMA.
func (s *SoC) addBuffer(name string, buf *mem.StreamBuffer) {
	for _, b := range s.bufs {
		if b == buf {
			return
		}
	}
	s.bufs = append(s.bufs, buf)
	s.add(component{name: name, reset: buf.Reset,
		attach: func(rec timeline.Recorder) { buf.AttachTimeline(rec, s.Q) }})
}

// SetTimeline attaches a timeline recorder to every component of the SoC
// — event queue, crossbar, DRAM, and all accelerators, scratchpads, DMAs
// and stream buffers added so far or later. A nil recorder detaches.
// Tracing is observer-effect-free: schedules, cycle counts and stats are
// byte-identical with it on or off. Attach a fresh recorder per run; lane
// registration is cumulative, so reusing one across SoC.Reset appends a
// second run to the same trace.
func (s *SoC) SetTimeline(rec timeline.Recorder) { s.setTimeline(rec) }

// Reset rewinds the SoC for a warm-started run: the event queue, stats,
// backing store, and every registered component return to their cold
// state while structural wiring (topology, address maps, IRQ lines)
// survives. Accelerators are re-armed through Reconfigure with the
// configuration they were added with. After Reset the system replays a
// driver program byte-identically to a freshly built SoC.
func (s *SoC) Reset() { s.reset() }

// AllocSPMRange carves an address range from the scratchpad arena.
func (s *SoC) AllocSPMRange(bytes uint64) mem.AddrRange {
	base := (s.nextSPM + 63) &^ 63
	if base+bytes > s.spmEnd {
		panic("salam: scratchpad arena exhausted")
	}
	s.nextSPM = base + bytes
	return mem.AddrRange{Base: base, Size: bytes}
}

// AddSPM creates a scratchpad in the arena, reachable from the crossbar
// (for DMA/host staging) and attachable as accelerator local memory.
func (s *SoC) AddSPM(name string, bytes uint64, latency, banks, ports int) *mem.Scratchpad {
	accClk := sim.NewClockDomainMHz(name+".clk", s.AccClk)
	spm := mem.NewScratchpad(name, s.Q, accClk, s.Space,
		s.AllocSPMRange(bytes), latency, banks, ports, s.Stats)
	s.Xbar.Attach(spm)
	s.add(spmComponent(name, spm))
	return spm
}

// AddBlockDMA creates a DMA whose MMRs are host-visible and whose
// transfers flow through the global crossbar. The engine is clocked at
// 200 MHz with a 4-byte effective channel (~0.8 GB/s, including descriptor overheads), the regime of a ZCU102
// data mover; adjust BlockDMA.BytesPerCycle to retune.
func (s *SoC) AddBlockDMA(name string) (*mem.BlockDMA, int) {
	dmaClk := sim.NewClockDomainMHz(name+".clk", 200)
	dma := mem.NewBlockDMA(name, s.Q, dmaClk, s.allocMMR(mem.DMANumRegs), s.Xbar, s.Stats)
	dma.BytesPerCycle = 4
	s.Xbar.Attach(dma.MMR)
	line := s.allocIRQ()
	dma.IRQ = s.GIC.Line(line)
	s.add(dmaComponent(name, dma))
	return dma, line
}

// AddStreamDMA creates a stream DMA bridging the crossbar and buf.
func (s *SoC) AddStreamDMA(name string, buf *mem.StreamBuffer) (*mem.StreamDMA, int) {
	sd := mem.NewStreamDMA(name, s.Q, s.SysClk, s.Xbar, buf, s.Stats)
	line := s.allocIRQ()
	sd.IRQ = s.GIC.Line(line)
	s.add(component{name: name, reset: sd.Reset, attach: sd.AttachTimeline})
	s.addBuffer(name+".buf", buf)
	return sd, line
}

// AccelOpts controls AddAccel.
type AccelOpts struct {
	Cfg AccelConfig
	// Profile defaults to Default40nm.
	Profile *hw.Profile
	// SPMBytes creates a private scratchpad of this size (0 = none).
	SPMBytes uint64
	// SharedSPM attaches an existing scratchpad as local memory instead.
	SharedSPM *mem.Scratchpad
	// SPMLatency/Banks/Ports configure the private SPM.
	SPMLatency, SPMBanks, SPMPorts int
	// Global grants a global-crossbar port (for DRAM/cache access).
	Global bool
}

// AddAccel instantiates an accelerator for kernel function f.
func (s *SoC) AddAccel(name string, f *ir.Function, o AccelOpts) (*AccelNode, error) {
	profile := o.Profile
	if profile == nil {
		profile = defaultProfile
	}
	if o.Cfg.ClockMHz == 0 {
		o.Cfg = core.DefaultConfig()
	}
	g, err := core.SharedElab.Elaborate(f, profile, o.Cfg.FULimits)
	if err != nil {
		return nil, err
	}
	mmrBase := s.allocMMR(2 + len(f.Params))
	comm := core.NewCommInterface(name+".comm", s.Q, s.SysClk, mmrBase, len(f.Params), s.Stats)
	s.Xbar.Attach(comm.MMR)

	node := &AccelNode{Comm: comm, MMRBase: mmrBase}
	switch {
	case o.SharedSPM != nil:
		comm.AttachLocal(o.SharedSPM)
		node.SPM = o.SharedSPM
	case o.SPMBytes > 0:
		lat, banks, ports := o.SPMLatency, o.SPMBanks, o.SPMPorts
		if lat <= 0 {
			lat = 2
		}
		if banks <= 0 {
			banks = 4
		}
		if ports <= 0 {
			ports = 2
		}
		node.SPM = s.AddSPM(name+".spm", o.SPMBytes, lat, banks, ports)
		comm.AttachLocal(node.SPM)
	}
	if o.Global || node.SPM == nil {
		comm.AttachGlobal(s.Xbar)
	}

	node.IRQLine = s.allocIRQ()
	comm.IRQ = s.GIC.Line(node.IRQLine)
	node.Acc = core.NewAccelerator(name, s.Q, g, o.Cfg, comm, s.Stats)
	// Reset re-arms the engine with the configuration it was added with:
	// Reconfigure rewinds all engine state against the same shared CDFG
	// (the timeline attachment survives it — same CDFG, same FU lanes).
	cfg := o.Cfg
	s.add(accelComponent(name, node.Acc, comm, func() {
		comm.Reset()
		node.Acc.Reconfigure(g, cfg)
	}))
	return node, nil
}

// StreamLink wires producer stores to consumer loads through a bounded
// FIFO — the AXI-Stream-style direct connection of Fig. 16(c). It returns
// the window addresses the two kernels should use as their buffer
// pointers.
func (s *SoC) StreamLink(name string, producer, consumer *AccelNode, bufBytes int) (outWin, inWin uint64) {
	buf := mem.NewStreamBuffer(name, bufBytes, s.Stats)
	s.addBuffer(name, buf)
	out := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	in := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	producer.Comm.AttachStream(out, buf, core.StreamOut)
	consumer.Comm.AttachStream(in, buf, core.StreamIn)
	return out.Base, in.Base
}

// StreamWindow allocates a window bound to an existing buffer on one
// accelerator (for DMA-fed streams).
func (s *SoC) StreamWindow(node *AccelNode, buf *mem.StreamBuffer, dir core.StreamDir) uint64 {
	w := mem.AddrRange{Base: s.nextWin, Size: 1 << 20}
	s.nextWin += 1 << 20
	node.Comm.AttachStream(w, buf, dir)
	return w.Base
}

func (s *SoC) allocMMR(regs int) uint64 {
	base := s.nextMMR
	s.nextMMR += uint64(regs*8+0xff) &^ 0xff
	return base
}

func (s *SoC) allocIRQ() int {
	n := s.nextIRQ
	s.nextIRQ++
	return n
}

// Run drains the event queue.
func (s *SoC) Run() sim.Tick { return s.Q.Run() }

// RunHost executes a driver program on the host and runs the simulation
// until it completes.
func (s *SoC) RunHost(prog []cpu.Op) (sim.Tick, error) {
	done := false
	s.Host.Run(prog, func() { done = true })
	s.Q.RunWhile(func() bool { return !done })
	if !done {
		return s.Q.Now(), fmt.Errorf("salam: host program did not complete (deadlock?)")
	}
	return s.Q.Now(), nil
}

// Now returns current simulated time.
func (s *SoC) Now() sim.Tick { return s.Q.Now() }

// Stamp returns a driver op that records the current time into *t.
func Stamp(s *SoC, t *sim.Tick) cpu.Op {
	return cpu.Call{Desc: "stamp", Fn: func(h *cpu.Host, done func()) {
		*t = s.Q.Now()
		done()
	}}
}
