package main

import (
	"runtime"
	"strings"
)

// refCalibrationSeconds is what one calibration loop takes, in process
// CPU seconds, on the reference host (2-vCPU Intel Xeon VM, go1.24) at its
// usual speed. Printed timings are in reference seconds: CPU seconds
// times refCalibrationSeconds over the run's median calibration, and
// rates are divided by the same factor. On a shared virtual machine the
// work one CPU second buys drifts by more than half within minutes as
// neighbours come and go; the scaling cancels most of that drift, which
// would otherwise swamp any change worth measuring. The loop is plain Go
// that touches nothing of the simulator, so a change to the simulator
// moves the scaled figures exactly as it moves the raw ones.
const refCalibrationSeconds = 0.015

// calibrationRounds is how many calibration loops run before each set-up
// round and each pass.
const calibrationRounds = 3

// calibrate samples the host's current speed.
func (b *bench) calibrate() {
	runtime.GC()
	for i := 0; i < calibrationRounds; i++ {
		t0 := cpuSeconds()
		calibrationLoop()
		b.sample("host.calibration_s", "", cpuSeconds()-t0)
	}
}

// refScale converts this run's CPU seconds to reference seconds.
func (b *bench) refScale() float64 {
	cal, ok := b.value("host.calibration_s")
	if !ok || cal <= 0 {
		return 1
	}
	return refCalibrationSeconds / cal
}

// scaled converts a metric from CPU seconds to reference seconds by the
// power of seconds its unit carries: s and ns scale up, per-second rates
// down, counts and ratios not at all.
func scaled(v float64, unit string, scale float64) float64 {
	switch {
	case unit == "s" || unit == "ns":
		return v * scale
	case strings.HasSuffix(unit, "/s"):
		return v / scale
	}
	return v
}

type calNode struct {
	next *calNode
	v    float64
}

var calSink float64

// calibrationLoop is a fixed piece of work with the simulator's mix:
// map traffic, fresh small allocations linked at random and chased, and
// floating-point arithmetic.
func calibrationLoop() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]uint64, 1<<12)
	for i := 0; i < 200_000; i++ {
		v := next()
		m[v&0xffff] += v
	}
	nodes := make([]*calNode, 20_000)
	for i := range nodes {
		nodes[i] = &calNode{v: float64(i)}
	}
	for _, n := range nodes {
		n.next = nodes[next()%uint64(len(nodes))]
	}
	p, s := nodes[0], 0.0
	for i := 0; i < 400_000; i++ {
		s += p.v * 1.0000001
		p = p.next
	}
	calSink += s + float64(len(m))
}
