package salam_test

// Tests for the timeline tracing subsystem's public surfaces: trace_event
// JSON structure of a real kernel trace, the stall-attribution invariant
// (breakdown classes sum to the kernel's cycle count), and full-SoC
// warm-start reuse through SoC.Reset on streaming (Fig. 16c-style),
// cluster and LLC topologies.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	salam "gosalam"
	"gosalam/internal/sim"
	"gosalam/internal/timeline"
	"gosalam/ir"
	"gosalam/kernels"
)

// traceFile mirrors the Chrome trace_event "JSON Object Format".
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Name string         `json:"name"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TestTimelineTrace generates a gemm trace and decodes it back: the bytes
// must be valid trace_event JSON with the expected process/thread
// structure, the breakdown classes must sum exactly to the kernel's cycle
// count, and the traced run must report the same result as an untraced one.
func TestTimelineTrace(t *testing.T) {
	k := kernels.ByName(kernels.Small, "gemm")
	if k == nil {
		t.Fatal("gemm kernel missing")
	}
	plain, err := salam.RunKernel(k, salam.DefaultRunOpts())
	if err != nil {
		t.Fatal(err)
	}

	rec := timeline.NewJSON()
	bd := timeline.NewBreakdown()
	opts := salam.DefaultRunOpts()
	opts.Timeline = timeline.NewTee(rec, bd)
	res, err := salam.RunKernel(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != plain.Cycles || res.Ticks != plain.Ticks || res.EventsFired != plain.EventsFired {
		t.Fatalf("traced run diverged: cycles %d/%d ticks %d/%d events %d/%d",
			res.Cycles, plain.Cycles, res.Ticks, plain.Ticks, res.EventsFired, plain.EventsFired)
	}

	// Stall attribution: exactly one cycle class per engine cycle, so the
	// histogram over the engine lane sums to the kernel cycle count.
	counts, ok := bd.Counts(k.Name, "engine")
	if !ok {
		t.Fatalf("breakdown has no %s/engine lane", k.Name)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != res.Cycles {
		t.Fatalf("breakdown classes sum to %d, kernel ran %d cycles", sum, res.Cycles)
	}
	if counts[timeline.ClassIssue] == 0 {
		t.Fatal("gemm recorded zero issue cycles")
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Lane structure: process metadata for the accelerator and the sim
	// group, a thread named "engine", and real slices on it.
	procs := map[int]string{}
	threads := map[[2]int]string{}
	slices, instants, counters := 0, 0, 0
	var engineCycles uint64
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procs[ev.Pid], _ = ev.Args["name"].(string)
			case "thread_name":
				threads[[2]int{ev.Pid, ev.Tid}], _ = ev.Args["name"].(string)
			case "process_sort_index", "thread_sort_index":
			default:
				t.Fatalf("unexpected metadata record %q", ev.Name)
			}
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("slice %q has non-positive duration %g", ev.Name, ev.Dur)
			}
			if threads[[2]int{ev.Pid, ev.Tid}] == "engine" && procs[ev.Pid] == k.Name {
				// Engine slices are cycle classes; dur is µs of engine time.
				if _, known := map[string]bool{"issue": true, "stall.mem": true,
					"stall.fu": true, "stall.fetch": true, "stall.operand": true}[ev.Name]; !known {
					t.Fatalf("unknown engine cycle class %q", ev.Name)
				}
				engineCycles += uint64(ev.Dur*1e6 + 0.5) // µs back to ps
			}
		case "i":
			instants++
			if ev.S != "t" {
				t.Fatalf("instant %q missing thread scope", ev.Name)
			}
		case "C":
			counters++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	groups := map[string]bool{}
	for _, name := range procs {
		groups[name] = true
	}
	if !groups[k.Name] || !groups["sim"] {
		t.Fatalf("missing process groups in %v", procs)
	}
	if slices == 0 || counters == 0 {
		t.Fatalf("trace has %d slices, %d counters; want both nonzero", slices, counters)
	}
	// The merged engine slices must tile the kernel's cycles exactly:
	// total engine-lane duration == cycles * clock period.
	wantPS := res.Cycles * uint64(sim.Tick(10000)) // 100 MHz default accel clock
	if engineCycles != wantPS {
		t.Fatalf("engine lane covers %d ps, want %d (cycles*period)", engineCycles, wantPS)
	}
}

// streamSoC builds the Fig. 16c-style streaming pipeline — conv → relu →
// max-pool connected by stream FIFOs, DMA-staged input, self-synchronizing
// stages — and returns the SoC plus a run function that stages inputs,
// drives the host program, and fingerprints the completed run.
func streamSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	const h, w = 10, 10
	const ch, cw = h - 2, w - 2
	img := make([]float64, h*w)
	for i := range img {
		img[i] = float64((i*37)%17)/8.0 - 1
	}
	weights := []float64{1, 0, -1, 2, 0, -2, 1, 0, -1}
	want := kernels.MaxPoolGolden(kernels.ReLUGolden(kernels.ConvGolden(img, weights, h, w)), ch, cw)

	soc := salam.NewSoC(16)
	cfg := salam.AccelConfig{ClockMHz: 100, ReadPorts: 8, WritePorts: 4,
		MaxOutstanding: 32, ResQueueSize: 256, PipelineLoops: true}
	aopts := func(spm uint64) salam.AccelOpts {
		return salam.AccelOpts{Cfg: cfg, SPMBytes: spm, SPMPorts: 8, SPMBanks: 8}
	}
	conv, err := soc.AddAccel("conv", kernels.Conv2D(h, w).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	relu, err := soc.AddAccel("relu", kernels.ReLU(ch*cw).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := soc.AddAccel("pool", kernels.MaxPoolStream(ch, cw).F, aopts(4096))
	if err != nil {
		t.Fatal(err)
	}
	dma, dmaIRQ := soc.AddBlockDMA("dma")
	convOutWin, reluInWin := soc.StreamLink("s1", conv, relu, 512)
	reluOutWin, poolInWin := soc.StreamLink("s2", relu, pool, 512)

	run := func() [3]uint64 {
		imgBytes := uint64(h * w * 8)
		poolBytes := uint64((ch / 2) * (cw / 2) * 8)
		// FlatMem.Reset rewinds the allocation cursor, so warm re-staging
		// lands on the same addresses as the cold run.
		soc.Space.SetAllocBase(1 << 20)
		imgA := soc.Space.AllocFor(ir.F64, h*w)
		wA := soc.Space.AllocFor(ir.F64, 9)
		for i, v := range img {
			soc.Space.WriteF64(imgA+uint64(i*8), v)
		}
		for i, v := range weights {
			soc.Space.WriteF64(wA+uint64(i*8), v)
		}
		cb := conv.SPM.Range().Base
		cImg, cW := cb, cb+imgBytes
		pb := pool.SPM.Range().Base
		pLines, pOut := pb, pb+uint64(2*cw*8)+64
		dramOut := uint64(8 << 20)

		dmaBase := dma.MMR.Range().Base
		var tEnd sim.Tick
		var prog []salam.DriverOp
		prog = append(prog, salam.StartDMA(dmaBase, imgA, cImg, imgBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartDMA(dmaBase, wA, cW, 72, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{poolInWin, pLines, pOut}, true)...)
		prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{reluInWin, reluOutWin}, false)...)
		prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, convOutWin}, false)...)
		prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
		prog = append(prog, salam.StartDMA(dmaBase, pOut, dramOut, poolBytes, 256, true)...)
		prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
		prog = append(prog, salam.Stamp(soc, &tEnd))

		if _, err := soc.RunHost(prog); err != nil {
			t.Fatal(err)
		}
		soc.Run()
		for i, wv := range want {
			got := soc.Space.ReadF64(dramOut + uint64(i*8))
			if d := got - wv; d > 1e-9 || d < -1e-9 {
				t.Fatalf("pool[%d] = %g, want %g", i, got, wv)
			}
		}
		return [3]uint64{uint64(tEnd), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// clusterSoC builds the cluster of TestClusterSharedSPMAndDMA — a ReLU
// accelerator on a cluster-shared SPM, fed and drained by the cluster DMA
// over the cluster's local crossbar — with the same run contract as
// streamSoC.
func clusterSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	soc := salam.NewSoC(16)
	cl := soc.NewCluster("cl0", salam.ClusterOpts{SharedSPMBytes: 64 << 10})
	k := kernels.ReLU(64)
	node, err := cl.AddAccel("relu", salam.AccelBuild{F: k.F, Opts: salam.AccelOpts{SharedSPM: cl.SharedSPM}})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i%9) - 4
	}
	want := kernels.ReLUGolden(vals)

	run := func() [3]uint64 {
		for i, v := range vals {
			soc.Space.WriteF64(0x1000+uint64(i*8), v)
		}
		spmIn := cl.SharedSPM.Range().Base
		spmOut := spmIn + 512
		dmaBase := cl.DMA.MMR.Range().Base
		var tEnd sim.Tick
		var prog []salam.DriverOp
		prog = append(prog, salam.StartDMA(dmaBase, 0x1000, spmIn, 512, 128, true)...)
		prog = append(prog, salam.WaitIRQ{Line: cl.DMAIRQ})
		prog = append(prog, salam.StartAccel(node.MMRBase, []uint64{spmIn, spmOut}, true)...)
		prog = append(prog, salam.WaitIRQ{Line: node.IRQLine})
		prog = append(prog, salam.StartDMA(dmaBase, spmOut, 0x2000, 512, 128, true)...)
		prog = append(prog, salam.WaitIRQ{Line: cl.DMAIRQ})
		prog = append(prog, salam.Stamp(soc, &tEnd))
		if _, err := soc.RunHost(prog); err != nil {
			t.Fatal(err)
		}
		soc.Run()
		for i, w := range want {
			if got := soc.Space.ReadF64(0x2000 + uint64(i*8)); got != w {
				t.Fatalf("out[%d] = %g, want %g", i, got, w)
			}
		}
		return [3]uint64{uint64(tEnd), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// llcSoC builds the reread SoC of TestLLCReducesDRAMTraffic — one
// accelerator summing the same DRAM-resident array eight times through a
// shared LLC — with the same run contract as streamSoC.
func llcSoC(t *testing.T) (*salam.SoC, func() [3]uint64) {
	t.Helper()
	soc := salam.NewSoC(16)
	soc.EnableLLC(64<<10, 64, 4)
	b := ir.NewBuilder(ir.NewModule("r"))
	f := b.Func("reread", ir.F64, ir.P("a", ir.Ptr(ir.F64)))
	sum := b.LoopCarried("rep", ir.I64c(0), ir.I64c(8), 1, []ir.Value{ir.F64c(0)},
		func(_ ir.Value, cr []ir.Value) []ir.Value {
			inner := b.LoopCarried("i", ir.I64c(0), ir.I64c(64), 1, []ir.Value{cr[0]},
				func(iv ir.Value, ci []ir.Value) []ir.Value {
					v := b.Load(b.GEP(f.Params[0], "p", iv), "v")
					return []ir.Value{b.FAdd(ci[0], v, "s")}
				})
			return []ir.Value{inner[0]}
		})
	b.Ret(sum[0])
	node, err := soc.AddAccel("acc", f, salam.AccelOpts{Global: true})
	if err != nil {
		t.Fatal(err)
	}

	run := func() [3]uint64 {
		for i := 0; i < 64; i++ {
			soc.Space.WriteF64(0x1000+uint64(i*8), 1)
		}
		var tEnd sim.Tick
		prog := append(salam.StartAccel(node.MMRBase, []uint64{0x1000}, true),
			salam.WaitIRQ{Line: node.IRQLine}, salam.Stamp(soc, &tEnd))
		if _, err := soc.RunHost(prog); err != nil {
			t.Fatal(err)
		}
		soc.Run()
		if got := ir.FloatFromBits(ir.F64, node.Acc.RetBits()); got != 512 {
			t.Fatalf("sum = %g, want 512", got)
		}
		return [3]uint64{uint64(tEnd), uint64(soc.Q.Now()), soc.Q.Fired()}
	}
	return soc, run
}

// socTopologies are the SoC shapes the warm-start and restore gates run
// over: every component each one registers must honor the registry's
// reset and snapshot contracts.
var socTopologies = []struct {
	name  string
	build func(*testing.T) (*salam.SoC, func() [3]uint64)
}{
	{"stream", streamSoC},
	{"cluster", clusterSoC},
	{"llc", llcSoC},
}

// statsOf renders an SoC's full statistics tree.
func statsOf(s *salam.SoC) string {
	var sb strings.Builder
	s.Stats.Dump(&sb)
	return sb.String()
}

// TestSoCWarmStartStreaming: a full SoC — stream buffers and windows,
// block and cluster DMAs, local and global crossbars, an LLC, GIC, host —
// must replay a driver program after SoC.Reset with a byte-identical
// schedule and statistics to a freshly built system. Any component whose
// Reset contract is incomplete or never registered (stale FIFO bytes, a
// latched DMA busy bit, queued crossbar requests, pending GIC lines, warm
// LLC lines) shifts the fingerprint.
func TestSoCWarmStartStreaming(t *testing.T) {
	for _, topo := range socTopologies {
		t.Run(topo.name, func(t *testing.T) {
			coldSoC, coldRun := topo.build(t)
			cold := coldRun()
			coldStats := statsOf(coldSoC)

			warmSoC, warmRun := topo.build(t)
			if first := warmRun(); first != cold {
				t.Fatalf("two fresh SoCs diverged: %v vs %v", first, cold)
			}
			for i := 0; i < 2; i++ {
				warmSoC.Reset()
				if got := warmRun(); got != cold {
					t.Fatalf("warm run %d fingerprint = %v, cold = %v", i+1, got, cold)
				}
				if s := statsOf(warmSoC); s != coldStats {
					t.Fatalf("warm run %d stats dump diverged from cold run:\nwarm:\n%s\ncold:\n%s", i+1, s, coldStats)
				}
			}
		})
	}
}

// TestSoCWarmStartTraced: SoC.Reset with a timeline attached — the traced
// warm replay must still match the untraced cold fingerprint, and lanes
// registered at construction must survive the reset.
func TestSoCWarmStartTraced(t *testing.T) {
	coldSoC, coldRun := streamSoC(t)
	cold := coldRun()
	_ = coldSoC

	soc, run := streamSoC(t)
	rec := timeline.NewBreakdown()
	soc.SetTimeline(rec)
	if got := run(); got != cold {
		t.Fatalf("traced fresh run fingerprint = %v, cold = %v", got, cold)
	}
	soc.Reset()
	if got := run(); got != cold {
		t.Fatalf("traced warm run fingerprint = %v, cold = %v", got, cold)
	}
	if rec.Total("dma", "transfer") == 0 {
		// The breakdown only counts Cycle() records; DMA lanes carry
		// slices, so check an engine lane instead for liveness.
		if rec.Total("conv", "engine") == 0 {
			t.Fatal("timeline recorded nothing across warm restart")
		}
	}
}
