package analysis

import (
	"gosalam/internal/core"
	"gosalam/internal/hw"
)

// Every component below is a provable lower bound on kernel cycles,
// derived from an invariant the engine enforces by construction:
//
//   - read/write ports: at most ReadPorts loads (WritePorts stores) issue
//     per cycle, and at least Totals.Loads/Stores dynamic instances must
//     issue (minExec-weighted, so itself a lower bound on dynamic count);
//   - fu:<class>: per cycle, issue slots used plus busy unpipelined units
//     never exceed the instantiated units; a pipelined initiation consumes
//     one unit-cycle, an unpipelined one at least Latency unit-cycles;
//   - op-ii: a static op initiates at most once per cycle (the per-op
//     II=1 stamp), so the most-executed block containing a stamped op
//     forces at least that many cycles;
//   - block-fetch: the engine fetches at most two basic blocks per cycle,
//     and all but the entry block's first execution require a fetch;
//   - crit-path: a block's intra-block dependence chain cannot complete
//     faster than its weighted critical path (see opWeight), and every
//     block with MinExec >= 1 runs at least once inside the kernel window.
//
// The overall bound is the maximum; Binding names the component that set
// it — the resource a designer must widen before anything else matters.

// Component is one named contributor to the lower bound.
type Component struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
}

// ClassBound is the per-FU-class demand and utilization envelope.
type ClassBound struct {
	Class     string `json:"class"`
	Units     int    `json:"units"`
	StaticOps int    `json:"static_ops"`
	// BusyWeighted is the minExec-weighted unit-cycle demand of the class.
	BusyWeighted uint64 `json:"busy_weighted"`
	MinCycles    uint64 `json:"min_cycles"`
	// UtilUB bounds the class's achievable occupancy from above:
	// demand / (bound_cycles * units), capped at 1. Sound as an upper
	// bound only when every contributing block's execution count is exact
	// (UtilSound); otherwise it is a heuristic estimate.
	UtilUB    float64 `json:"util_ub"`
	UtilSound bool    `json:"util_sound"`
}

// Bound is the resource-constrained cycle-count lower bound for one CDFG
// under one accelerator configuration.
type Bound struct {
	Cycles     uint64       `json:"cycles"`
	Binding    string       `json:"binding"`
	Components []Component  `json:"components"`
	ReadPorts  int          `json:"read_ports"`
	WritePorts int          `json:"write_ports"`
	Classes    []ClassBound `json:"classes,omitempty"`
}

func ceilDiv(a uint64, b int) uint64 {
	if b <= 0 {
		return a
	}
	return (a + uint64(b) - 1) / uint64(b)
}

// LowerBound evaluates the bound for a specific accelerator config. The
// FU pool sizes are baked into the CDFG (limits apply at elaboration);
// only the memory-port knobs come from cfg, normalized exactly as the
// engine normalizes them.
func (r *Report) LowerBound(cfg core.AccelConfig) Bound {
	cfg = cfg.Normalized()
	b := Bound{ReadPorts: cfg.ReadPorts, WritePorts: cfg.WritePorts}

	comps := []Component{
		{Name: "read-ports", Cycles: ceilDiv(r.Totals.Loads, cfg.ReadPorts)},
		{Name: "write-ports", Cycles: ceilDiv(r.Totals.Stores, cfg.WritePorts)},
		{Name: "op-ii", Cycles: r.Totals.MaxOpExecs},
		{Name: "crit-path", Cycles: r.Totals.MaxBlockCP},
	}
	if r.Totals.BlockExecs > 0 {
		// ceil((execs-1)/2): all but the entry's first execution are
		// fetched, at most two fetches per cycle.
		comps = append(comps, Component{Name: "block-fetch", Cycles: r.Totals.BlockExecs / 2})
	}
	for _, c := range hw.AllFUClasses() {
		if r.classOps[c] == 0 || r.fuTotal[c] <= 0 {
			continue
		}
		comps = append(comps, Component{
			Name:   "fu:" + c.String(),
			Cycles: ceilDiv(r.classBusy[c], r.fuTotal[c]),
		})
	}
	for _, c := range comps {
		if c.Cycles > b.Cycles {
			b.Cycles = c.Cycles
			b.Binding = c.Name
		}
	}
	b.Components = comps
	if b.Cycles == 0 && r.StaticOps > 0 {
		b.Cycles = 1
		b.Binding = "min"
	}

	for _, c := range hw.AllFUClasses() {
		if r.classOps[c] == 0 {
			continue
		}
		cb := ClassBound{
			Class:        c.String(),
			Units:        r.fuTotal[c],
			StaticOps:    r.classOps[c],
			BusyWeighted: r.classBusy[c],
			MinCycles:    ceilDiv(r.classBusy[c], r.fuTotal[c]),
			UtilSound:    r.classExact[c],
		}
		if b.Cycles > 0 && r.fuTotal[c] > 0 {
			cb.UtilUB = float64(r.classBusy[c]) / (float64(b.Cycles) * float64(r.fuTotal[c]))
			if cb.UtilUB > 1 {
				cb.UtilUB = 1
			}
		}
		b.Classes = append(b.Classes, cb)
	}
	return b
}

// busyWeight is the unit-cycle cost one initiation charges against its FU
// class: pipelined units free their issue slot after one cycle, while an
// unpipelined unit stays occupied for the op's full latency.
func busyWeight(st *core.StaticOp) uint64 {
	if st.Pipelined {
		return 1
	}
	if st.Latency < 1 {
		return 1
	}
	return uint64(st.Latency)
}
