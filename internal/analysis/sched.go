package analysis

import (
	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/ir"
)

// OpSched is one op's position in its block's dependence-only schedule.
// ASAP assumes infinite resources; ALAP is the latest issue cycle that
// still meets the block's critical path. Slack-zero ops are the critical
// chain — the ops a faster FU or extra port cannot hide.
type OpSched struct {
	Name     string `json:"name"`
	Op       string `json:"op"`
	Class    string `json:"class,omitempty"`
	Weight   uint64 `json:"weight"`
	ASAP     uint64 `json:"asap"`
	ALAP     uint64 `json:"alap"`
	Slack    uint64 `json:"slack"`
	Critical bool   `json:"critical"`
}

// BlockSched is the dependence schedule of one basic block.
type BlockSched struct {
	Block string `json:"block"`
	// CritPathCycles is the longest dependence chain through the block
	// under the engine's verified timing contract (see opWeight), so a
	// single execution of this block cannot finish in fewer cycles.
	CritPathCycles uint64 `json:"crit_path_cycles"`
	// MinExec is the provable per-invocation execution floor; Exact marks
	// counts derived entirely from counted loops and dominance.
	MinExec uint64    `json:"min_exec"`
	Exact   bool      `json:"exact"`
	Ops     []OpSched `json:"ops,omitempty"`
	// Critical lists the slack-zero op names in program order.
	Critical []string `json:"critical,omitempty"`
}

// opWeight is the minimum number of cycles between an op's issue and the
// earliest cycle a dependent op can issue, under the engine's verified
// contract: a latency-L compute op commits exactly L cycles after issue
// (commit phase precedes issue phase, so a consumer issues at +L); a load
// completes no earlier than the next cycle even on an SPM hit; stores,
// terminators, and zero-latency ops (mux, control) commit in their issue
// cycle.
func opWeight(st *core.StaticOp) uint64 {
	switch {
	case st.Mem && st.Load:
		return 1
	case st.Mem: // store: a sink, nothing consumes its (absent) result
		return 1
	case st.Term:
		return 0
	case st.Latency > 0:
		return uint64(st.Latency)
	}
	return 0
}

// scheduleBlock computes the ASAP/ALAP schedule of one block over its
// intra-block SSA dependence DAG. Phi operands are loop-carried or
// cross-block by construction and carry no same-execution edge; everything
// else follows In.Args producers defined in the same block. BlockOps is in
// program order and non-phi SSA producers precede their consumers, so one
// forward and one backward pass suffice.
func scheduleBlock(b *ir.Block, ops []*core.StaticOp, minExec uint64, exact bool) BlockSched {
	n := len(ops)
	pos := make(map[*ir.Instr]int, n)
	for i, st := range ops {
		pos[st.In] = i
	}
	w := make([]uint64, n)
	asap := make([]uint64, n)
	for i, st := range ops {
		w[i] = opWeight(st)
		if st.In.Op == ir.OpPhi {
			continue
		}
		for _, arg := range st.In.Args {
			p, ok := arg.(*ir.Instr)
			if !ok {
				continue
			}
			j, same := pos[p]
			if !same || j >= i {
				continue
			}
			if t := asap[j] + w[j]; t > asap[i] {
				asap[i] = t
			}
		}
	}
	var cp uint64
	for i := range ops {
		if t := asap[i] + w[i]; t > cp {
			cp = t
		}
	}
	alap := make([]uint64, n)
	hasUse := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		st := ops[i]
		if st.In.Op != ir.OpPhi {
			for _, arg := range st.In.Args {
				if p, ok := arg.(*ir.Instr); ok {
					if j, same := pos[p]; same && j < i {
						hasUse[j] = true
					}
				}
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		alap[i] = cp - w[i]
		if !hasUse[i] {
			continue
		}
		first := true
		for k := i + 1; k < n; k++ {
			if ops[k].In.Op == ir.OpPhi {
				continue
			}
			for _, arg := range ops[k].In.Args {
				if p, ok := arg.(*ir.Instr); ok && p == ops[i].In {
					if t := alap[k] - w[i]; first || t < alap[i] {
						alap[i] = t
						first = false
					}
				}
			}
		}
	}
	bs := BlockSched{Block: b.Name(), CritPathCycles: cp, MinExec: minExec, Exact: exact}
	bs.Ops = make([]OpSched, n)
	for i, st := range ops {
		cls := ""
		if st.Class != hw.FUNone {
			cls = st.Class.String()
		}
		slack := alap[i] - asap[i]
		bs.Ops[i] = OpSched{
			Name:     st.In.Name,
			Op:       st.In.Op.String(),
			Class:    cls,
			Weight:   w[i],
			ASAP:     asap[i],
			ALAP:     alap[i],
			Slack:    slack,
			Critical: slack == 0,
		}
		if bs.Ops[i].Slack == 0 {
			bs.Critical = append(bs.Critical, st.In.Name)
		}
	}
	return bs
}
