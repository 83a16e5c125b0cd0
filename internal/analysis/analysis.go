package analysis

import (
	"sync"
	"sync/atomic"

	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/ir"
)

// Totals are the minExec-weighted dynamic-work floors of one CDFG — the
// configuration-independent inputs to LowerBound.
type Totals struct {
	// Loads/Stores are lower bounds on dynamic memory instances.
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
	// BlockExecs is a lower bound on total basic-block executions.
	BlockExecs uint64 `json:"block_execs"`
	// DynOps is a lower bound on total dynamic op instances.
	DynOps uint64 `json:"dyn_ops"`
	// MaxOpExecs is the largest execution floor of any block containing a
	// stamped compute op (per-static-op initiation interval of 1).
	MaxOpExecs uint64 `json:"max_op_execs"`
	// MaxBlockCP is the longest weighted critical path of any block that
	// provably executes.
	MaxBlockCP uint64 `json:"max_block_cp"`
}

// Envelope is the static power/area/energy envelope from the hardware
// profile's models: leakage and area are exact properties of the
// elaborated datapath; MinDynEnergyPJ is the minExec-weighted floor of
// the dynamic energy the engine will charge (exact when EnergyExact).
type Envelope struct {
	StaticFUMW     float64 `json:"static_fu_mw"`
	StaticRegMW    float64 `json:"static_reg_mw"`
	AreaFUUM2      float64 `json:"area_fu_um2"`
	AreaRegUM2     float64 `json:"area_reg_um2"`
	AreaUM2        float64 `json:"area_um2"`
	MinDynEnergyPJ float64 `json:"min_dyn_energy_pj"`
	EnergyExact    bool    `json:"energy_exact"`
}

// LoopReport is one detected natural loop.
type LoopReport struct {
	Header string `json:"header"`
	Depth  int    `json:"depth"`
	Blocks int    `json:"blocks"`
	// Trip is the proven constant trip count, -1 when not provable
	// (data-dependent bounds degrade every dependent result to its
	// dominance fallback, never to an unsound number).
	Trip int64  `json:"trip"`
	IV   string `json:"iv,omitempty"`
}

// Report is the full static analysis of one elaborated CDFG. It is
// immutable once built and safe to share across goroutines.
type Report struct {
	Function  string `json:"function"`
	Blocks    int    `json:"blocks"`
	Reachable int    `json:"reachable"`
	StaticOps int    `json:"static_ops"`
	// Unreachable lists blocks no entry path reaches; DeadOps lists ops
	// whose results are never consumed (a DCE pass or HLS tool would
	// strip them; the engine still spends issue slots on them).
	Unreachable []string     `json:"unreachable,omitempty"`
	DeadOps     []string     `json:"dead_ops,omitempty"`
	Loops       []LoopReport `json:"loops,omitempty"`
	Sched       []BlockSched `json:"sched"`
	Mem         MemReport    `json:"mem"`
	Totals      Totals       `json:"totals"`
	Envelope    Envelope     `json:"envelope"`

	// Per-FU-class demand, indexed by hw.FUClass (terminators excluded:
	// the engine's control path never contends for units).
	classBusy  []uint64
	classOps   []int
	classExact []bool
	fuTotal    []int

	// Per-FU-class minExec-weighted initiation counts and FU energy,
	// indexed by hw.FUClass. Terminators ARE included here (under
	// FUControl): they never contend for units, but the engine charges
	// their FU energy at commit, so the per-class energies must sum to the
	// FU floor.
	classInits    []uint64
	classEnergyPJ []float64
	classInitOK   []bool

	// The MinDynEnergyPJ split, mirroring the engine's three counters:
	// fuFloorPJ lower-bounds FUEnergyPJ, regFloorPJ lower-bounds
	// RegReadPJ + RegWritePJ. MinDynEnergyPJ == fuFloorPJ + regFloorPJ.
	fuFloorPJ  float64
	regFloorPJ float64
}

// Analyze computes the full static report for an elaborated CDFG. Use For
// to get the cached instance instead; Analyze always recomputes.
func Analyze(g *core.CDFG) *Report {
	c := buildCFG(g.F)
	r := &Report{
		Function:      g.F.Name(),
		Blocks:        len(g.F.Blocks),
		StaticOps:     g.NumOps,
		classBusy:     make([]uint64, hw.NumFUClasses()),
		classOps:      make([]int, hw.NumFUClasses()),
		classExact:    make([]bool, hw.NumFUClasses()),
		fuTotal:       make([]int, hw.NumFUClasses()),
		classInits:    make([]uint64, hw.NumFUClasses()),
		classEnergyPJ: make([]float64, hw.NumFUClasses()),
		classInitOK:   make([]bool, hw.NumFUClasses()),
	}
	for _, cl := range hw.AllFUClasses() {
		r.fuTotal[cl] = g.FUTotal[cl]
		r.classExact[cl] = true
		r.classInitOK[cl] = true
	}

	used := make(map[*ir.Instr]bool)
	for _, b := range g.F.Blocks {
		for _, in := range b.Instrs {
			for _, arg := range in.Args {
				if p, ok := arg.(*ir.Instr); ok {
					used[p] = true
				}
			}
		}
	}

	energyExact := true
	for bi, b := range g.F.Blocks {
		if !c.reachable[bi] {
			r.Unreachable = append(r.Unreachable, b.Name())
			continue
		}
		r.Reachable++
		minExec, exact := c.minExec[bi], c.exact[bi]
		if !exact {
			energyExact = false
		}
		bs := scheduleBlock(b, g.BlockOps[b], minExec, exact)
		r.Sched = append(r.Sched, bs)
		r.Totals.BlockExecs += minExec
		if minExec >= 1 && bs.CritPathCycles > r.Totals.MaxBlockCP {
			r.Totals.MaxBlockCP = bs.CritPathCycles
		}
		for _, st := range g.BlockOps[b] {
			r.Totals.DynOps += minExec
			switch {
			case st.Mem && st.Load:
				r.Totals.Loads += minExec
			case st.Mem:
				r.Totals.Stores += minExec
			case st.Term:
				// control path: no FU contention, no II stamp
			case st.Class != hw.FUNone:
				r.classBusy[st.Class] += minExec * busyWeight(st)
				r.classOps[st.Class]++
				if !exact {
					r.classExact[st.Class] = false
				}
				if minExec > r.Totals.MaxOpExecs {
					r.Totals.MaxOpExecs = minExec
				}
			}
			if in := st.In; in.HasResult() && !used[in] && !st.Store && !st.Term {
				r.DeadOps = append(r.DeadOps, "%"+in.Name)
			}
			fuPJ, regPJ := fuPerExecPJ(st), regPerExecPJ(st)
			r.fuFloorPJ += float64(minExec) * fuPJ
			r.regFloorPJ += float64(minExec) * regPJ
			r.Envelope.MinDynEnergyPJ += float64(minExec) * (fuPJ + regPJ)
			if !st.Mem && st.Class != hw.FUNone {
				r.classInits[st.Class] += minExec
				r.classEnergyPJ[st.Class] += float64(minExec) * st.EnergyPJ
				if !exact {
					r.classInitOK[st.Class] = false
				}
			}
		}
	}

	for _, l := range c.loops {
		lr := LoopReport{
			Header: c.blocks[l.header].Name(),
			Depth:  l.depth,
			Blocks: l.nblocks,
			Trip:   l.trip,
		}
		if l.iv != nil {
			lr.IV = "%" + l.iv.Name
		}
		r.Loops = append(r.Loops, lr)
	}

	r.Mem, _ = c.analyzeMem(g)

	r.Envelope.StaticFUMW = g.StaticFULeakageMW()
	r.Envelope.StaticRegMW = g.StaticRegLeakageMW()
	r.Envelope.AreaUM2 = g.AreaUM2()
	r.Envelope.AreaRegUM2 = g.Profile.Reg.AreaUM2 * float64(g.RegBits)
	r.Envelope.AreaFUUM2 = r.Envelope.AreaUM2 - r.Envelope.AreaRegUM2
	r.Envelope.EnergyExact = energyExact
	return r
}

// perExecEnergyPJ is the energy the engine charges for one dynamic
// execution of a static op, mirroring the issue/commit accounting in
// accel.go: memory ops charge the address read at issue and (loads) the
// register write at commit; terminators charge only their FU energy at
// commit; everything else charges all operand reads at issue plus FU
// energy and the result write at commit.
func perExecEnergyPJ(st *core.StaticOp) float64 {
	return fuPerExecPJ(st) + regPerExecPJ(st)
}

// fuPerExecPJ is the slice of one execution's energy the engine books
// against FUEnergyPJ: the FU dynamic energy, charged at commit for every
// non-memory op (memory ops have no FU; class FUNone specs are zero).
func fuPerExecPJ(st *core.StaticOp) float64 {
	if st.Mem {
		return 0
	}
	return st.EnergyPJ
}

// regPerExecPJ is the slice booked against RegReadPJ + RegWritePJ: the
// address-register read (memory ops), operand reads (compute ops), and the
// result write when the op produces one. Terminators charge no register
// traffic.
func regPerExecPJ(st *core.StaticOp) float64 {
	switch {
	case st.Mem:
		e := st.MemReadPJ
		if st.Result {
			e += st.WritePJ
		}
		return e
	case st.Term:
		return 0
	}
	e := 0.0
	for _, v := range st.ReadPJ {
		e += v
	}
	if st.Result {
		e += st.WritePJ
	}
	return e
}

// The per-CDFG report cache. Elaboration interns CDFGs process-wide (see
// core/elabcache.go), so pointer identity is a correct and collision-free
// cache key, and the analysis of a design-space sweep's shared graph is
// paid once.
var (
	reportCache sync.Map // *core.CDFG -> *Report
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
)

// For returns the (possibly cached) analysis of g. Concurrent first calls
// may compute twice; the result is deterministic, so either copy wins.
func For(g *core.CDFG) *Report {
	if v, ok := reportCache.Load(g); ok {
		cacheHits.Add(1)
		return v.(*Report)
	}
	cacheMisses.Add(1)
	r := Analyze(g)
	if prev, loaded := reportCache.LoadOrStore(g, r); loaded {
		return prev.(*Report)
	}
	return r
}

// CacheStats reports hit/miss counters of the per-CDFG report cache.
func CacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}
