package analysis

import (
	"fmt"
	"sort"

	"gosalam/internal/core"
	"gosalam/ir"
)

// The memory layer reduces every scratchpad access to an affine form
//
//	base + c + Σ coeff_i × iv_i
//
// where each iv is a counted-loop induction phi with a proven value range
// (cfg.ivRange). From that form it derives byte footprints, pairwise
// hazard classification (RAW/WAR/WAW the dynamic engine's disambiguator
// would serialize), and out-of-bounds proofs for globals whose element
// type fixes the buffer size. The lattice is explicit: "no overlap" and
// "every execution out of bounds" are sound claims (ranges are
// over-approximations, so emptiness and totality survive); "may overlap"
// is a heuristic warning, as is any claim about two distinct pointer
// parameters, which the engine binds to disjoint scratchpad buffers.

type symTerm struct {
	iv     *ir.Instr
	coeff  int64
	lo, hi int64 // proven value range of iv
}

// intExpr is an affine integer expression with proven term ranges.
type intExpr struct {
	c     int64
	terms []symTerm
}

const (
	baseUnknown = iota
	baseParam
	baseGlobal
)

// Access is one static memory op with its derived address information.
type Access struct {
	op    *core.StaticOp
	store bool
	size  int64

	baseKind int
	param    *ir.Param
	global   *ir.Global

	exact    bool // affine derivation succeeded end to end
	expr     intExpr
	min, max int64 // byte-offset range of the access start, valid when exact
	stride   int64 // gcd of |coeffs|, 0 when the offset is a single constant

	minExec uint64 // provable executions of the enclosing block
}

// MemReport is the function-level memory analysis.
type MemReport struct {
	Accesses  int          `json:"accesses"`
	Loads     int          `json:"loads"`
	Stores    int          `json:"stores"`
	Resolved  int          `json:"resolved"` // accesses with exact affine form
	Footprint []BaseExtent `json:"footprint,omitempty"`
	Hazards   []Hazard     `json:"hazards,omitempty"`
	OOB       []OOBFinding `json:"oob,omitempty"`
	// NoHazardProven: every same-base pair of accesses (with at least one
	// store) was proven non-overlapping — the engine's dynamic
	// disambiguator will never serialize two in-flight scratchpad ops of
	// this kernel on the same buffer.
	NoHazardProven bool `json:"no_hazard_proven"`
}

// BaseExtent is the provable byte extent touched through one base pointer.
type BaseExtent struct {
	Base     string `json:"base"`
	MinByte  int64  `json:"min_byte"`
	MaxByte  int64  `json:"max_byte"` // exclusive
	Bytes    int64  `json:"bytes"`
	Resolved bool   `json:"resolved"` // all accesses through this base are exact
}

// Hazard is one may-overlap pair the dynamic engine would serialize.
type Hazard struct {
	Kind  string `json:"kind"` // raw | war | waw
	First string `json:"first"`
	Then  string `json:"then"`
	Base  string `json:"base"`
	// Proven is false for may-analysis results: the pair could not be
	// proven disjoint, which is a warning, not a certainty.
	Proven bool `json:"proven"`
}

// OOBFinding is an access whose every possible address misses its buffer
// (Proven, when the block provably executes) or whose footprint extends
// past the buffer for some over-approximated index value (heuristic).
type OOBFinding struct {
	Op      string `json:"op"`
	Base    string `json:"base"`
	MinByte int64  `json:"min_byte"`
	MaxByte int64  `json:"max_byte"` // exclusive, over the access footprint
	Size    int64  `json:"buffer_bytes"`
	Proven  bool   `json:"proven"`
}

func mulOverflows(a, b int64) bool {
	if a == 0 || b == 0 {
		return false
	}
	p := a * b
	return p/b != a
}

// deriveInt reduces v to affine form as observed from block `at` (the
// block of the consuming access, which narrows induction ranges to the
// values that actually reach it). ok=false means "unknown", which poisons
// the access conservatively (it may alias anything on any base).
func (c *cfgInfo) deriveInt(v ir.Value, at int) (intExpr, bool) {
	switch t := v.(type) {
	case *ir.ConstInt:
		return intExpr{c: t.V}, true
	case *ir.Instr:
		switch t.Op {
		case ir.OpPhi:
			if lo, hi, ok := c.ivRangeAt(t, at); ok {
				return intExpr{terms: []symTerm{{iv: t, coeff: 1, lo: lo, hi: hi}}}, true
			}
			return intExpr{}, false
		case ir.OpAdd, ir.OpSub:
			a, okA := c.deriveInt(t.Args[0], at)
			b, okB := c.deriveInt(t.Args[1], at)
			if !okA || !okB {
				return intExpr{}, false
			}
			if t.Op == ir.OpSub {
				b = b.scale(-1)
			}
			return a.add(b), true
		case ir.OpMul:
			a, okA := c.deriveInt(t.Args[0], at)
			b, okB := c.deriveInt(t.Args[1], at)
			if !okA || !okB {
				return intExpr{}, false
			}
			if len(b.terms) == 0 {
				return a.scaleChecked(b.c)
			}
			if len(a.terms) == 0 {
				return b.scaleChecked(a.c)
			}
			return intExpr{}, false
		case ir.OpShl:
			a, okA := c.deriveInt(t.Args[0], at)
			sh, okS := ir.ConstBits(t.Args[1])
			if !okA || !okS || sh >= 63 {
				return intExpr{}, false
			}
			return a.scaleChecked(int64(1) << sh)
		case ir.OpZExt, ir.OpSExt:
			// Width changes preserve the mathematical value only when the
			// operand's proven range fits the source width.
			a, ok := c.deriveInt(t.Args[0], at)
			if !ok {
				return intExpr{}, false
			}
			it, isInt := t.Args[0].Type().(ir.IntType)
			if !isInt || it.W <= 0 || it.W > 64 {
				return intExpr{}, false
			}
			lo, hi := a.valueRange()
			if t.Op == ir.OpZExt {
				if it.W == 64 || (lo >= 0 && hi < int64(1)<<uint(it.W)) {
					return a, true
				}
			} else {
				if it.W == 64 || (lo >= -(int64(1)<<uint(it.W-1)) && hi < int64(1)<<uint(it.W-1)) {
					return a, true
				}
			}
			return intExpr{}, false
		}
	}
	return intExpr{}, false
}

func (e intExpr) add(o intExpr) intExpr {
	r := intExpr{c: e.c + o.c, terms: append(append([]symTerm(nil), e.terms...), o.terms...)}
	return r.canon()
}

func (e intExpr) scale(k int64) intExpr {
	r := intExpr{c: e.c * k}
	for _, t := range e.terms {
		t.coeff *= k
		r.terms = append(r.terms, t)
	}
	return r
}

func (e intExpr) scaleChecked(k int64) (intExpr, bool) {
	if mulOverflows(e.c, k) {
		return intExpr{}, false
	}
	for _, t := range e.terms {
		if mulOverflows(t.coeff, k) || mulOverflows(t.coeff*k, t.lo) || mulOverflows(t.coeff*k, t.hi) {
			return intExpr{}, false
		}
	}
	return e.scale(k).canon(), true
}

// canon merges duplicate induction variables and drops zero coefficients.
func (e intExpr) canon() intExpr {
	if len(e.terms) < 2 {
		if len(e.terms) == 1 && e.terms[0].coeff == 0 {
			e.terms = nil
		}
		return e
	}
	merged := e.terms[:0:0]
	for _, t := range e.terms {
		found := false
		for i := range merged {
			if merged[i].iv == t.iv {
				merged[i].coeff += t.coeff
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, t)
		}
	}
	out := merged[:0]
	for _, t := range merged {
		if t.coeff != 0 {
			out = append(out, t)
		}
	}
	e.terms = out
	return e
}

// valueRange is the over-approximated range of the expression: each iv
// independently spans its proven range.
func (e intExpr) valueRange() (lo, hi int64) {
	lo, hi = e.c, e.c
	for _, t := range e.terms {
		a, b := t.coeff*t.lo, t.coeff*t.hi
		if a > b {
			a, b = b, a
		}
		lo += a
		hi += b
	}
	return lo, hi
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (e intExpr) strideGCD() int64 {
	var g int64
	for _, t := range e.terms {
		g = gcd64(g, t.coeff)
	}
	return g
}

// derivePtr resolves a pointer value to (base, affine byte offset),
// with induction ranges narrowed to block `at`.
func (c *cfgInfo) derivePtr(v ir.Value, at int) (a Access, ok bool) {
	defer func() {
		// GEPStrides panics on pointer shapes the builder never emits;
		// treat those as unresolved rather than crashing the analyzer.
		if recover() != nil {
			a, ok = Access{baseKind: baseUnknown}, false
		}
	}()
	switch t := v.(type) {
	case *ir.Param:
		return Access{baseKind: baseParam, param: t, exact: true}, true
	case *ir.Global:
		return Access{baseKind: baseGlobal, global: t, exact: true}, true
	case *ir.Instr:
		switch t.Op {
		case ir.OpGEP:
			base, ok := c.derivePtr(t.Args[0], at)
			if !ok {
				return base, false
			}
			strides := t.GEPStrides()
			for k := 1; k < len(t.Args); k++ {
				idx, okI := c.deriveInt(t.Args[k], at)
				if !okI {
					base.exact = false
					return base, true // base known, offset unknown
				}
				scaled, okS := idx.scaleChecked(strides[k-1])
				if !okS {
					base.exact = false
					return base, true
				}
				base.expr = base.expr.add(scaled)
			}
			return base, true
		case ir.OpBitcast:
			return c.derivePtr(t.Args[0], at)
		}
	}
	return Access{baseKind: baseUnknown}, false
}

func (a *Access) baseName() string {
	switch a.baseKind {
	case baseParam:
		return "%" + a.param.PName
	case baseGlobal:
		return "@" + a.global.GName
	}
	return "?"
}

func (a *Access) sameBase(b *Access) bool {
	if a.baseKind != b.baseKind {
		return false
	}
	switch a.baseKind {
	case baseParam:
		return a.param == b.param
	case baseGlobal:
		return a.global == b.global
	}
	return true // both unknown: must assume same
}

// mayOverlap reports whether the two footprints can intersect. Only the
// negative answer is a proof; the positive is a may-result. Requires
// sameBase.
func (a *Access) mayOverlap(b *Access) bool {
	if !a.exact || !b.exact {
		return true
	}
	// d = bStart - aStart; accesses overlap iff d in (-b.size... precisely
	// d in (-sB, sA) where sA/sB are the access widths.
	dmin, dmax := b.min-a.max, b.max-a.min
	if dmax <= -b.size || dmin >= a.size {
		return false // range test: gap proven
	}
	g := gcd64(a.expr.strideGCD(), b.expr.strideGCD())
	if g == 0 {
		d := b.expr.c - a.expr.c
		return d > -b.size && d < a.size
	}
	// d ≡ (cB - cA) mod g. Overlap needs a representative in (-sB, sA).
	r := ((b.expr.c-a.expr.c)%g + g) % g
	return r < a.size || r+b.size > g
}

// analyzeMem derives the memory report for one CDFG.
func (c *cfgInfo) analyzeMem(g *core.CDFG) (MemReport, []*Access) {
	var accs []*Access
	for _, b := range g.F.Blocks {
		bi := c.idx[b]
		if !c.reachable[bi] {
			continue
		}
		for _, st := range g.BlockOps[b] {
			if !st.Mem {
				continue
			}
			var addr ir.Value
			if st.Store {
				addr = st.In.Args[1]
			} else {
				addr = st.In.Args[0]
			}
			a, _ := c.derivePtr(addr, bi)
			a.op = st
			a.store = st.Store
			a.size = int64(st.AccSize)
			a.minExec = c.minExec[bi]
			if a.exact {
				a.min, a.max = a.expr.valueRange()
				a.stride = a.expr.strideGCD()
			}
			accs = append(accs, &a)
		}
	}
	sort.SliceStable(accs, func(i, j int) bool { return accs[i].op.ID < accs[j].op.ID })

	rep := MemReport{Accesses: len(accs)}
	for _, a := range accs {
		if a.store {
			rep.Stores++
		} else {
			rep.Loads++
		}
		if a.exact {
			rep.Resolved++
		}
	}

	// Per-base footprints, named deterministically and sorted.
	type extAcc struct {
		ext  BaseExtent
		seen bool
	}
	exts := map[string]*extAcc{}
	var names []string
	for _, a := range accs {
		name := a.baseName()
		e := exts[name]
		if e == nil {
			e = &extAcc{ext: BaseExtent{Base: name, Resolved: true}}
			exts[name] = e
			names = append(names, name)
		}
		if !a.exact {
			e.ext.Resolved = false
			continue
		}
		if !e.seen || a.min < e.ext.MinByte {
			e.ext.MinByte = a.min
		}
		if !e.seen || a.max+a.size > e.ext.MaxByte {
			e.ext.MaxByte = a.max + a.size
		}
		e.seen = true
	}
	sort.Strings(names)
	for _, n := range names {
		e := exts[n]
		if e.seen {
			e.ext.Bytes = e.ext.MaxByte - e.ext.MinByte
		}
		rep.Footprint = append(rep.Footprint, e.ext)
	}

	// Pairwise hazards: every same-base pair with at least one store that
	// cannot be proven disjoint. Distinct params and distinct globals are
	// disjoint buffers in this machine model (the engine binds them to
	// separate scratchpad regions), so only same-base pairs serialize.
	rep.NoHazardProven = true
	const hazardCap = 64
	for i := 0; i < len(accs); i++ {
		for j := i + 1; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !a.store && !b.store {
				continue
			}
			if !a.sameBase(b) {
				continue
			}
			if !a.mayOverlap(b) {
				continue
			}
			rep.NoHazardProven = false
			kind := "waw"
			switch {
			case a.store && !b.store:
				kind = "raw"
			case !a.store && b.store:
				kind = "war"
			}
			if len(rep.Hazards) < hazardCap {
				rep.Hazards = append(rep.Hazards, Hazard{
					Kind:  kind,
					First: "%" + a.op.In.Name,
					Then:  "%" + b.op.In.Name,
					Base:  a.baseName(),
				})
			}
		}
	}

	// Out-of-bounds: globals carry their buffer size in the type. A
	// finding is Proven when every possible start offset misses the
	// buffer and the enclosing block provably executes; otherwise it is a
	// heuristic warning when the over-approximated footprint leaks out.
	for _, a := range accs {
		if a.baseKind != baseGlobal || !a.exact {
			continue
		}
		buf := int64(a.global.Elem.SizeBytes())
		if buf <= 0 {
			continue
		}
		allOOB := a.min+a.size > buf || a.max < 0
		someOOB := a.min < 0 || a.max+a.size > buf
		if !someOOB {
			continue
		}
		rep.OOB = append(rep.OOB, OOBFinding{
			Op:      "%" + a.op.In.Name,
			Base:    a.baseName(),
			MinByte: a.min,
			MaxByte: a.max + a.size,
			Size:    buf,
			Proven:  allOOB && a.minExec >= 1,
		})
	}
	// Negative offsets on parameter bases are worth a warning too.
	for _, a := range accs {
		if a.baseKind == baseParam && a.exact && a.min < 0 {
			rep.OOB = append(rep.OOB, OOBFinding{
				Op:      "%" + a.op.In.Name,
				Base:    a.baseName(),
				MinByte: a.min,
				MaxByte: a.max + a.size,
				Size:    -1,
			})
		}
	}
	return rep, accs
}

// String renders a hazard compactly for the text report.
func (h Hazard) String() string {
	return fmt.Sprintf("%s %s -> %s on %s", h.Kind, h.First, h.Then, h.Base)
}
