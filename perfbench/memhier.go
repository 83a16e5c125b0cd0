package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	salam "gosalam"
	"gosalam/internal/soccfg"
	"gosalam/kernels"
)

// memHier: the kernels in cache mode, with the paper-default 4 KiB L1
// smaller than every working set, plus two multi-accelerator SoCs built
// from larger variants of the shipped CNN configs and driven by the host.
// It exercises the cache, MSHRs, DRAM, crossbars, DMA and stream buffers
// that exact-spm bypasses, with accelerators idling on memory and on each
// other.
type memHier struct {
	kernelRuns
	socs []*socItem
}

var memHierSpecs = []kernelSpec{
	{Kernel: "bfs", Size: []int{256, 4}},
	{Kernel: "fft", Size: []int{256}},
	{Kernel: "gemm", Size: []int{24}},
	{Kernel: "md-knn", Size: []int{64, 16}},
	{Kernel: "md-grid", Size: []int{3, 6}},
	{Kernel: "nw", Size: []int{48}},
	{Kernel: "spmv", Size: []int{512, 5}},
	{Kernel: "stencil2d", Size: []int{32, 32}},
	{Kernel: "stencil3d", Size: []int{12, 12, 12}},
}

// The SoC variants run a conv→relu→maxpool layer on an imgSide² image.
const (
	imgSide  = 34
	convSide = imgSide - 2
	poolSide = convSide / 2
)

// socItem is one configured SoC: the decoded document, the seeded layer
// inputs, their golden output, and how to drive it.
type socItem struct {
	label    string
	cfg      *soccfg.Config
	periodPS float64 // accelerator clock period
	imgs     [][]float64
	weights  []float64
	want     [][]float64
	drive    func(built *salam.ConfiguredSoC, it *socItem) ([]salam.DriverOp, func() error, error)
}

func (w *memHier) setup(b *bench) error {
	sums := roundSums{}
	if err := parseFixtures(b, sums); err != nil {
		return err
	}
	items, err := setupKernels(b, memHierSpecs, "cache", sums)
	if err != nil {
		return err
	}
	w.items = items
	stream, err := w.socSetup(b, sums, "stream", "configs/cnn_stream.json", 1, streamVariant, driveStream)
	if err != nil {
		return err
	}
	cluster, err := w.socSetup(b, sums, "cluster", "configs/cnn_cluster.json", 2, clusterVariant, driveCluster)
	if err != nil {
		return err
	}
	w.socs = []*socItem{stream, cluster}
	sums.flush(b)
	return nil
}

// socSetup reads a shipped config, scales it up, re-emits it, decodes the
// variant the way a user's document is decoded, and generates the seeded
// layer inputs (one image per pipeline) and their golden outputs.
func (w *memHier) socSetup(b *bench, sums roundSums, label, path string, pipelines int,
	variant func(*soccfg.Config), drive func(*salam.ConfiguredSoC, *socItem) ([]salam.DriverOp, func() error, error)) (*socItem, error) {
	src, err := os.ReadFile(filepath.Join(b.root, path))
	if err != nil {
		return nil, err
	}
	base, d, err := timed(b, "soccfg.Parse", func() (*soccfg.Config, error) { return soccfg.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sums["soccfg.parse_s"] += d
	variant(base)
	doc, err := base.Emit()
	if err != nil {
		return nil, err
	}
	cfg, d, err := timed(b, "soccfg.Parse", func() (*soccfg.Config, error) { return soccfg.Parse(doc) })
	if err != nil {
		return nil, fmt.Errorf("%s variant: %w", path, err)
	}
	sums["soccfg.parse_s"] += d
	if _, d, err = timed(b, "soccfg.Validate", func() (any, error) { return nil, cfg.Validate() }); err != nil {
		return nil, fmt.Errorf("%s variant: %w", path, err)
	}
	sums["soccfg.parse_s"] += d

	mhz := cfg.SoC.Accels[0].ClockMHz
	if mhz == 0 {
		mhz = 100
	}
	it := &socItem{label: "soc/" + label, cfg: cfg, periodPS: 1e6 / mhz, drive: drive}
	r := rand.New(rand.NewSource(b.seed))
	it.weights = make([]float64, 9)
	for i := range it.weights {
		it.weights[i] = r.Float64()*2 - 1
	}
	for p := 0; p < pipelines; p++ {
		img := make([]float64, imgSide*imgSide)
		for i := range img {
			img[i] = r.Float64()*2 - 1
		}
		it.imgs = append(it.imgs, img)
		it.want = append(it.want, kernels.MaxPoolGolden(
			kernels.ReLUGolden(kernels.ConvGolden(img, it.weights, imgSide, imgSide)), convSide, convSide))
	}
	return it, nil
}

// streamVariant scales cnn_stream.json to the larger layer and puts a
// last-level cache in front of DRAM, so the DMA traffic crosses it.
func streamVariant(c *soccfg.Config) {
	for i := range c.SoC.Accels {
		a := &c.SoC.Accels[i]
		switch a.Kernel {
		case "conv2d":
			a.Size = []int{imgSide, imgSide}
			a.SPMBytes = 16384
		case "relu":
			a.Size = []int{convSide * convSide}
		case "maxpool-stream":
			a.Size = []int{convSide, convSide}
		}
	}
	c.SoC.LLC = &soccfg.LLCCfg{Bytes: 8192}
}

// clusterVariant turns cnn_cluster.json's shared-SPM pipeline into two
// clusters, each running the larger layer on its own cluster scratchpad
// behind its local crossbar.
func clusterVariant(c *soccfg.Config) {
	proto := c.SoC.Accels
	c.SoC.SPMs = nil
	c.SoC.Accels = nil
	for p := 0; p < 2; p++ {
		name := fmt.Sprintf("c%d", p)
		c.SoC.Clusters = append(c.SoC.Clusters, soccfg.ClusterCfg{Name: name, SharedSPMBytes: 65536})
		for _, a := range proto {
			a.Name = fmt.Sprintf("%s%d", a.Name, p)
			a.Cluster = name
			a.SharedSPM = "cluster"
			switch a.Kernel {
			case "conv2d":
				a.Size = []int{imgSide, imgSide}
			case "relu":
				a.Size = []int{convSide * convSide}
			case "maxpool":
				a.Size = []int{convSide, convSide}
			}
			c.SoC.Accels = append(c.SoC.Accels, a)
		}
	}
}

// closeTo compares a simulated output buffer with its golden values.
func closeTo(read func(i int) float64, want []float64, what string) error {
	for i, w := range want {
		if got := read(i); math.Abs(got-w) > 1e-9 {
			return fmt.Errorf("%s[%d] = %g, want %g", what, i, got, w)
		}
	}
	return nil
}

// driveStream programs the DMA-fed stream pipeline: DMA the image and
// weights from DRAM into conv's SPM, start the three stages (linked by
// stream buffers), and DMA the pooled output back to DRAM.
func driveStream(built *salam.ConfiguredSoC, it *socItem) ([]salam.DriverOp, func() error, error) {
	soc := built.SoC
	conv, relu, pool := built.Accels["conv"], built.Accels["relu"], built.Accels["pool"]
	dma, ok := built.DMAs["dma"]
	if conv == nil || relu == nil || pool == nil || !ok {
		return nil, nil, fmt.Errorf("stream SoC is missing a component: %v", built.Order)
	}
	dmaIRQ := built.DMAIRQs["dma"]
	img := it.imgs[0]
	imgA, wA := uint64(1<<20), uint64(1<<20)+uint64(len(img)*8)
	for i, v := range img {
		soc.Space.WriteF64(imgA+uint64(i*8), v)
	}
	for i, v := range it.weights {
		soc.Space.WriteF64(wA+uint64(i*8), v)
	}
	imgBytes := uint64(len(img) * 8)
	poolBytes := uint64(poolSide * poolSide * 8)
	cImg := conv.SPM.Range().Base
	cW := cImg + imgBytes
	pLines := pool.SPM.Range().Base
	pOut := pLines + uint64(2*convSide*8) + 64
	dramOut := uint64(8 << 20)
	mmr := dma.MMR.Range().Base

	var prog []salam.DriverOp
	prog = append(prog, salam.StartDMA(mmr, imgA, cImg, imgBytes, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartDMA(mmr, wA, cW, 72, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	prog = append(prog, salam.StartAccel(pool.MMRBase, []uint64{built.StreamIn["s2"], pLines, pOut}, true)...)
	prog = append(prog, salam.StartAccel(relu.MMRBase, []uint64{built.StreamIn["s1"], built.StreamOut["s2"]}, false)...)
	prog = append(prog, salam.StartAccel(conv.MMRBase, []uint64{cImg, cW, built.StreamOut["s1"]}, false)...)
	prog = append(prog, salam.WaitIRQ{Line: pool.IRQLine})
	prog = append(prog, salam.StartDMA(mmr, pOut, dramOut, poolBytes, 256, true)...)
	prog = append(prog, salam.WaitIRQ{Line: dmaIRQ})
	check := func() error {
		return closeTo(func(i int) float64 { return soc.Space.ReadF64(dramOut + uint64(i*8)) }, it.want[0], "stream pool")
	}
	return prog, check, nil
}

// driveCluster runs both clusters' pipelines side by side: each stage
// starts on both clusters, and the host waits for both before the next.
func driveCluster(built *salam.ConfiguredSoC, it *socItem) ([]salam.DriverOp, func() error, error) {
	soc := built.SoC
	type bufs struct{ img, w, conv, relu, pool uint64 }
	var bs []bufs
	var checks []func() error
	stages := [][]salam.DriverOp{nil, nil, nil}
	var waits [3][]salam.DriverOp
	for p := range it.imgs {
		cl := built.Clusters[fmt.Sprintf("c%d", p)]
		conv, relu, pool := built.Accels[fmt.Sprintf("conv%d", p)], built.Accels[fmt.Sprintf("relu%d", p)], built.Accels[fmt.Sprintf("pool%d", p)]
		if cl == nil || cl.SharedSPM == nil || conv == nil || relu == nil || pool == nil {
			return nil, nil, fmt.Errorf("cluster SoC is missing a component: %v", built.Order)
		}
		base := cl.SharedSPM.Range().Base
		img := it.imgs[p]
		bb := bufs{img: base, w: base + uint64(len(img)*8)}
		bb.conv = bb.w + 128
		bb.relu = bb.conv + uint64(convSide*convSide*8)
		bb.pool = bb.relu + uint64(convSide*convSide*8)
		bs = append(bs, bb)
		for i, v := range img {
			soc.Space.WriteF64(bb.img+uint64(i*8), v)
		}
		for i, v := range it.weights {
			soc.Space.WriteF64(bb.w+uint64(i*8), v)
		}
		stages[0] = append(stages[0], salam.StartAccel(conv.MMRBase, []uint64{bb.img, bb.w, bb.conv}, true)...)
		stages[1] = append(stages[1], salam.StartAccel(relu.MMRBase, []uint64{bb.conv, bb.relu}, true)...)
		stages[2] = append(stages[2], salam.StartAccel(pool.MMRBase, []uint64{bb.relu, bb.pool}, true)...)
		waits[0] = append(waits[0], salam.WaitIRQ{Line: conv.IRQLine})
		waits[1] = append(waits[1], salam.WaitIRQ{Line: relu.IRQLine})
		waits[2] = append(waits[2], salam.WaitIRQ{Line: pool.IRQLine})
		want, at := it.want[p], bb.pool
		checks = append(checks, func() error {
			return closeTo(func(i int) float64 { return soc.Space.ReadF64(at + uint64(i*8)) }, want, fmt.Sprintf("cluster %d pool", p))
		})
	}
	var prog []salam.DriverOp
	for s := range stages {
		prog = append(prog, stages[s]...)
		prog = append(prog, waits[s]...)
	}
	check := func() error {
		for _, c := range checks {
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}
	return prog, check, nil
}

func (w *memHier) prepare(*bench) {}

func (w *memHier) pass(b *bench) {
	var tot passTotals
	w.run(b, &tot)
	for _, it := range w.socs {
		w.runSoC(b, it, &tot)
	}
	w.passDone(b, tot)
}

// runSoC builds the SoC from its document and runs the host program:
// the whole call a user makes, timed as one.
func (w *memHier) runSoC(b *bench, it *socItem, tot *passTotals) {
	b.op("op:soc "+it.label, func() error {
		var lanes *engineLanes
		built, dBuild, err := timed(b, "salam.BuildFromConfig", func() (*salam.ConfiguredSoC, error) {
			return salam.BuildFromConfig(it.cfg)
		})
		if err != nil {
			return err
		}
		if b.tracing {
			lanes = newEngineLanes()
			built.SoC.SetTimeline(lanes)
		}
		prog, check, err := it.drive(built, it)
		if err != nil {
			return err
		}
		end, dRun, err := timed(b, "salam.SoC.RunHost", func() (uint64, error) {
			end, err := built.SoC.RunHost(prog)
			built.SoC.Run()
			return uint64(end), err
		})
		if err != nil {
			return err
		}
		if err := check(); err != nil {
			return err
		}
		events := built.SoC.Q.Fired()
		if err := b.same(it.label, end, events); err != nil {
			return err
		}
		cycles := uint64(float64(end) / it.periodPS)
		d := dBuild + dRun
		b.sample("sim_mcycles_per_s", it.label, float64(cycles)/d/1e6)
		b.sample("call_s", it.label, d)
		b.sample("salam.soc_build_s", it.label, dBuild)
		b.sample("salam.soc_run_s", it.label, dRun)
		tot.add(d, cycles, events)
		if b.pass == 0 {
			w.counts.add(readStats(built.SoC.Stats))
			w.events += events
		}
		if lanes != nil && b.pass == 1 {
			w.tl.add(lanes.classes())
		}
		return nil
	})
}

func (w *memHier) finish(b *bench) { w.publish(b) }
