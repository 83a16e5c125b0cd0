package analysis

import (
	"testing"

	"gosalam/internal/core"
	"gosalam/internal/hw"
	"gosalam/ir"
)

func elab(t *testing.T, f *ir.Function) *core.CDFG {
	t.Helper()
	g, err := core.Elaborate(f, hw.Default40nm(), nil)
	if err != nil {
		t.Fatalf("elaborate %s: %v", f.Name(), err)
	}
	return g
}

// buildNest builds a 2-deep counted nest storing to a global:
//
//	for i in [0,8) { for j in [0,4) { buf[i*4+j] = j } }
func buildNest(t *testing.T) (*ir.Module, *ir.Function) {
	t.Helper()
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(32, ir.I32))
	b := ir.NewBuilder(m)
	f := b.Func("nest", ir.Void)
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		b.Loop("j", ir.I64c(0), ir.I64c(4), 1, func(j ir.Value) {
			base := b.Mul(i, ir.I64c(4), "base")
			idx := b.Add(base, j, "idx")
			p := b.GEP(buf, "p", ir.I64c(0), idx)
			b.Store(b.Trunc(j, ir.I32, "jv"), p)
		})
	})
	b.Ret(nil)
	return m, f
}

func TestCountedNestExecCounts(t *testing.T) {
	_, f := buildNest(t)
	c := buildCFG(f)
	if len(c.loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(c.loops))
	}
	trips := map[string]int64{}
	for _, l := range c.loops {
		trips[c.blocks[l.header].Name()] = l.trip
	}
	if trips["i.head"] != 8 || trips["j.head"] != 4 {
		t.Fatalf("trips = %v, want i=8 j=4", trips)
	}
	want := map[string]uint64{
		"entry":  1,
		"i.head": 9,
		"j.head": 8 * 5, // (4+1) headers per entry, 8 entries
		"j.body": 32,
		"j.exit": 8,
		"i.exit": 1,
	}
	for i, b := range f.Blocks {
		if w, ok := want[b.Name()]; ok {
			if c.minExec[i] != w {
				t.Errorf("minExec[%s] = %d, want %d", b.Name(), c.minExec[i], w)
			}
			if !c.exact[i] {
				t.Errorf("minExec[%s] should be exact", b.Name())
			}
		}
	}
}

// Data-dependent bound: the comparison limit is a loaded value, so the
// trip is unprovable and counts degrade to the dominance fallback.
func TestDataDependentLoopUnproven(t *testing.T) {
	m := ir.NewModule("t")
	n := m.AddGlobal("n", ir.I64)
	buf := m.AddGlobal("buf", ir.Arr(64, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("dyn", ir.Void)
	limit := b.Load(n, "limit")

	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	pre := b.B
	b.Br(head)
	b.SetBlock(head)
	iv := b.Phi(ir.I64, "iv")
	ir.AddIncoming(iv, ir.I64c(0), pre)
	cond := b.ICmp(ir.ISLT, iv, limit, "cond")
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	b.Store(iv, b.GEP(buf, "p", ir.I64c(0), iv))
	next := b.Add(iv, ir.I64c(1), "next")
	ir.AddIncoming(iv, next, b.B)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(nil)

	c := buildCFG(f)
	if len(c.loops) != 1 || c.loops[0].trip != -1 {
		t.Fatalf("data-dependent loop should be unproven, got %+v", c.loops[0])
	}
	for i, blk := range f.Blocks {
		switch blk.Name() {
		case "entry", "head", "exit":
			// entry and head/exit dominate the ret: at least one execution.
			if c.minExec[i] != 1 {
				t.Errorf("minExec[%s] = %d, want fallback 1", blk.Name(), c.minExec[i])
			}
		case "body":
			if c.minExec[i] != 0 {
				t.Errorf("minExec[body] = %d, want 0 (may never run)", c.minExec[i])
			}
		}
	}
}

// A loop with a break (exit from the body) must not be treated as counted.
func TestLoopWithBreakUnproven(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(64, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("brk", ir.Void)

	head := b.Block("head")
	body := b.Block("body")
	cont := b.Block("cont")
	exit := b.Block("exit")
	pre := b.B
	b.Br(head)
	b.SetBlock(head)
	iv := b.Phi(ir.I64, "iv")
	ir.AddIncoming(iv, ir.I64c(0), pre)
	cond := b.ICmp(ir.ISLT, iv, ir.I64c(16), "cond")
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	v := b.Load(b.GEP(buf, "p", ir.I64c(0), iv), "v")
	brk := b.ICmp(ir.IEQ, v, ir.I64c(7), "brk")
	b.CondBr(brk, exit, cont) // the break edge
	b.SetBlock(cont)
	next := b.Add(iv, ir.I64c(1), "next")
	ir.AddIncoming(iv, next, b.B)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(nil)

	c := buildCFG(f)
	if len(c.loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(c.loops))
	}
	if c.loops[0].exitViaHeaderOnly || c.loops[0].trip != -1 {
		t.Fatalf("break loop must be unproven, got trip %d", c.loops[0].trip)
	}
}

// A single-block self-loop (header == latch, the shape clang -O1 emits for
// innermost loops) must have a body of exactly its header. Seeding the
// backward body walk with the header used to absorb every block reaching
// the loop, which broke nesting badly enough to cycle the loop parent
// chain — buildCFG then never terminated. The go test timeout guards the
// termination half of this regression.
func TestSelfLoopBodyAndNesting(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(64, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("selfnest", ir.Void)

	ohead := b.Block("ohead")
	inner := b.Block("inner")
	olatch := b.Block("olatch")
	exit := b.Block("exit")
	pre := b.B
	b.Br(ohead)
	b.SetBlock(ohead)
	i := b.Phi(ir.I64, "i")
	ir.AddIncoming(i, ir.I64c(0), pre)
	oc := b.ICmp(ir.ISLT, i, ir.I64c(8), "oc")
	b.CondBr(oc, inner, exit)
	b.SetBlock(inner)
	j := b.Phi(ir.I64, "j")
	ir.AddIncoming(j, ir.I64c(0), ohead)
	b.Store(j, b.GEP(buf, "p", ir.I64c(0), j))
	jn := b.Add(j, ir.I64c(1), "jn")
	ir.AddIncoming(j, jn, inner)
	ic := b.ICmp(ir.ISLT, jn, ir.I64c(4), "ic")
	b.CondBr(ic, inner, olatch)
	b.SetBlock(olatch)
	in := b.Add(i, ir.I64c(1), "in")
	ir.AddIncoming(i, in, olatch)
	b.Br(ohead)
	b.SetBlock(exit)
	b.Ret(nil)

	c := buildCFG(f)
	if len(c.loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(c.loops))
	}
	byHeader := map[string]*loopInfo{}
	for _, l := range c.loops {
		byHeader[c.blocks[l.header].Name()] = l
	}
	self, outer := byHeader["inner"], byHeader["ohead"]
	if self == nil || outer == nil {
		t.Fatalf("headers = %v, want inner and ohead", byHeader)
	}
	if self.nblocks != 1 {
		t.Errorf("self-loop nblocks = %d, want 1 (body must be the header alone)", self.nblocks)
	}
	if outer.nblocks != 3 {
		t.Errorf("outer nblocks = %d, want 3 (ohead, inner, olatch)", outer.nblocks)
	}
	if self.parent < 0 || c.loops[self.parent] != outer || self.depth != 1 {
		t.Errorf("self-loop parent/depth = %d/%d, want nested once under ohead", self.parent, self.depth)
	}
	if outer.parent != -1 || outer.depth != 0 {
		t.Errorf("outer parent/depth = %d/%d, want top level", outer.parent, outer.depth)
	}
}

// buildRotated builds the rotated (do-while) counted loop clang -O1
// emits: increment first, then `icmp eq %inc, hi` exiting on true from
// the latch. step/hi are parameters so the non-divisible case can assert
// the prover refuses to guess.
func buildRotated(t *testing.T, step, hi int64) *ir.Function {
	t.Helper()
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(64, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("rot", ir.Void)

	body := b.Block("body")
	exit := b.Block("exit")
	pre := b.B
	b.Br(body)
	b.SetBlock(body)
	iv := b.Phi(ir.I64, "iv")
	ir.AddIncoming(iv, ir.I64c(0), pre)
	b.Store(iv, b.GEP(buf, "p", ir.I64c(0), iv))
	inc := b.Add(iv, ir.I64c(step), "inc")
	ir.AddIncoming(iv, inc, body)
	done := b.ICmp(ir.IEQ, inc, ir.I64c(hi), "done")
	b.CondBr(done, exit, body)
	b.SetBlock(exit)
	b.Ret(nil)
	return f
}

// The rotated shape must prove its trip, and the header — which IS the
// body in a self-loop — must count exactly trip executions, not the
// while-shape's trip+1 header tests.
func TestRotatedLoopTripProven(t *testing.T) {
	c := buildCFG(buildRotated(t, 1, 16))
	if len(c.loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(c.loops))
	}
	l := c.loops[0]
	if !l.rotated || l.trip != 16 || l.lo != 0 || l.step != 1 {
		t.Fatalf("rotated/trip/lo/step = %v/%d/%d/%d, want true/16/0/1", l.rotated, l.trip, l.lo, l.step)
	}
	if l.ivLast != 15 {
		t.Errorf("ivLast = %d, want 15 (the phi never holds the exit bound)", l.ivLast)
	}
	for i, blk := range c.blocks {
		want := uint64(1)
		if blk.Name() == "body" {
			want = 16
		}
		if c.minExec[i] != want || !c.exact[i] {
			t.Errorf("minExec[%s] = %d exact=%v, want %d exact", blk.Name(), c.minExec[i], c.exact[i], want)
		}
	}
}

// An equality exit the increment steps over (3 never divides 16) must
// stay unproven: guessing a trip there would be unsound, the source loop
// would not even terminate.
func TestRotatedLoopNonDivisibleUnproven(t *testing.T) {
	c := buildCFG(buildRotated(t, 3, 16))
	if len(c.loops) != 1 || c.loops[0].trip != -1 {
		t.Fatalf("non-divisible rotated loop must stay unproven, got trip %d", c.loops[0].trip)
	}
}

func TestMemDisjointHalvesNoHazard(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(16, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("halves", ir.Void)
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		v := b.Load(b.GEP(buf, "lo", ir.I64c(0), b.Add(i, ir.I64c(8), "hi_idx")), "v")
		b.Store(v, b.GEP(buf, "so", ir.I64c(0), i))
	})
	b.Ret(nil)
	rep := Analyze(elab(t, f))
	if !rep.Mem.NoHazardProven || len(rep.Mem.Hazards) != 0 {
		t.Fatalf("disjoint halves flagged: hazards=%v", rep.Mem.Hazards)
	}
	if len(rep.Mem.OOB) != 0 {
		t.Fatalf("unexpected OOB: %v", rep.Mem.OOB)
	}
}

// Interleaved strides: store buf[2i], load buf[2i+1] — congruence-disjoint
// even though the ranges overlap.
func TestMemStrideDisjointNoHazard(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(32, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("stride", ir.Void)
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		even := b.Mul(i, ir.I64c(2), "even")
		odd := b.Add(even, ir.I64c(1), "odd")
		v := b.Load(b.GEP(buf, "lp", ir.I64c(0), odd), "v")
		b.Store(v, b.GEP(buf, "sp", ir.I64c(0), even))
	})
	b.Ret(nil)
	rep := Analyze(elab(t, f))
	if !rep.Mem.NoHazardProven {
		t.Fatalf("stride-disjoint accesses flagged: %v", rep.Mem.Hazards)
	}
}

// Same-cell traffic must be reported as a hazard pair.
func TestMemOverlapHazardReported(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(16, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("acc", ir.Void)
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		p := b.GEP(buf, "p", ir.I64c(0), ir.I64c(0))
		v := b.Load(p, "v")
		b.Store(b.Add(v, i, "nv"), p)
	})
	b.Ret(nil)
	rep := Analyze(elab(t, f))
	if rep.Mem.NoHazardProven || len(rep.Mem.Hazards) == 0 {
		t.Fatal("accumulator traffic should report hazards")
	}
	kinds := map[string]bool{}
	for _, h := range rep.Mem.Hazards {
		kinds[h.Kind] = true
	}
	if !kinds["raw"] && !kinds["war"] {
		t.Fatalf("expected raw/war hazards, got %v", rep.Mem.Hazards)
	}
}

func TestProvableOutOfBounds(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(8, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("oob", ir.Void)
	// Every execution reads buf[8..15] of an 8-element buffer.
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		v := b.Load(b.GEP(buf, "p", ir.I64c(0), b.Add(i, ir.I64c(8), "idx")), "v")
		b.Store(v, b.GEP(buf, "q", ir.I64c(0), ir.I64c(0)))
	})
	b.Ret(nil)
	rep := Analyze(elab(t, f))
	if len(rep.Mem.OOB) == 0 {
		t.Fatal("no OOB finding for a provably out-of-bounds access")
	}
	found := false
	for _, o := range rep.Mem.OOB {
		if o.Proven {
			found = true
		}
	}
	if !found {
		t.Fatalf("OOB finding should be proven: %+v", rep.Mem.OOB)
	}
}

// The final iteration leaks one element past the end: a heuristic warning,
// not a proof (some executions are in bounds).
func TestPartialOOBWarned(t *testing.T) {
	m := ir.NewModule("t")
	buf := m.AddGlobal("buf", ir.Arr(8, ir.I64))
	b := ir.NewBuilder(m)
	f := b.Func("edge", ir.Void)
	b.Loop("i", ir.I64c(0), ir.I64c(8), 1, func(i ir.Value) {
		v := b.Load(b.GEP(buf, "p", ir.I64c(0), b.Add(i, ir.I64c(1), "idx")), "v")
		b.Store(v, b.GEP(buf, "q", ir.I64c(0), i))
	})
	b.Ret(nil)
	rep := Analyze(elab(t, f))
	if len(rep.Mem.OOB) != 1 {
		t.Fatalf("OOB findings = %v, want exactly the load warning", rep.Mem.OOB)
	}
	if rep.Mem.OOB[0].Proven {
		t.Fatal("partial overrun must stay a heuristic warning, not a proof")
	}
}

func TestDeadAndUnreachableReporting(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder(m)
	f := b.Func("dead", ir.Void)
	b.Add(ir.I64c(1), ir.I64c(2), "unused")
	done := b.Block("done")
	b.Br(done)
	orphan := b.Block("orphan")
	b.SetBlock(orphan)
	b.Br(done)
	b.SetBlock(done)
	b.Ret(nil)

	rep := Analyze(elab(t, f))
	if len(rep.DeadOps) != 1 || rep.DeadOps[0] != "%unused" {
		t.Errorf("DeadOps = %v, want [%%unused]", rep.DeadOps)
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "orphan" {
		t.Errorf("Unreachable = %v, want [orphan]", rep.Unreachable)
	}
}

// The bound's components must respond to the knobs they model.
func TestBoundComponentsRespondToConfig(t *testing.T) {
	_, f := buildNest(t)
	rep := Analyze(elab(t, f))
	narrow := rep.LowerBound(core.AccelConfig{ReadPorts: 1, WritePorts: 1})
	wide := rep.LowerBound(core.AccelConfig{ReadPorts: 8, WritePorts: 8})
	if narrow.Cycles < wide.Cycles {
		t.Fatalf("narrowing ports lowered the bound: %d < %d", narrow.Cycles, wide.Cycles)
	}
	if wide.Binding == "" || len(wide.Components) == 0 {
		t.Fatalf("bound missing binding/components: %+v", wide)
	}
	// 32 stores through 1 write port force at least 32 cycles.
	if narrow.Cycles < 32 {
		t.Fatalf("1-port bound %d, want >= 32 (32 stores)", narrow.Cycles)
	}
}
