package search

import (
	"sort"

	salam "gosalam"
	"gosalam/internal/campaign"
	"gosalam/internal/hw"
)

// axisVal is one resolved knob value together with its position on the
// original Space axis — the position is what enumeration-index attribution
// and JobAt reconstruction need, independent of the sorted exploration
// order.
type axisVal struct {
	val int
	idx int
}

// fuClass is one equivalence class of the FU-limit axis. All members
// elaborate to the same per-class unit counts — the limit clamps to the
// kernel's dedicated demand, so every limit at or above demand (and the
// 0 = dedicated spelling) is the same hardware — and therefore produce
// byte-identical metrics. eff is the class's effective unit count, the
// scalar the lattice orders the axis by; members are sorted ascending by
// axis index so members[0] is the class's lowest-enumeration-index
// representative.
type fuClass struct {
	eff     int
	members []axisVal
}

// lattice is the collapsed exploration grid for one memory kind: FU
// equivalence classes ascending by effective units, ports and banks
// ascending by value (so box corners are bound corners). Under cache mode
// the SPM bank knob configures hardware that is never built, so the bank
// axis collapses to its first entry with bankMult carrying the
// multiplicity.
type lattice struct {
	ax       *campaign.Axes
	memIdx   int
	classes  []fuClass
	ports    []axisVal
	banks    []axisVal
	bankMult int
	// obj is the space's search objective; it orders the best-bound heap
	// (EDP-first under ObjEDP) so the queue expands the most promising
	// regions for what the search is actually minimizing.
	obj Objective
}

// enumIdx recomposes a canonical enumeration index from axis positions
// (banks innermost, mirroring campaign.Axes.coords).
func (l *lattice) enumIdx(fuIdx, portIdx, bankIdx int) int {
	ax := l.ax
	return ((l.memIdx*len(ax.FU)+fuIdx)*len(ax.Ports)+portIdx)*len(ax.Banks) + bankIdx
}

// fpDemand returns the kernel's dedicated unit demand for the FP classes
// the fu knob limits (the clamp point of the equivalence collapse), or
// ok=false when static analysis cannot elaborate the kernel — in which
// case the caller must not collapse.
func fpDemand(ax *campaign.Axes) (int, bool) {
	opts := salam.DefaultRunOpts()
	rep, err := salam.AnalyzeKernel(ax.Kernel, opts) // no FULimits: dedicated counts
	if err != nil {
		return 0, false
	}
	demand := 0
	b := rep.LowerBound(opts.Accel)
	for _, cb := range b.Classes {
		if cb.Class == hw.FUFPAdder.String() || cb.Class == hw.FUFPMultiplier.String() {
			if cb.Units > demand {
				demand = cb.Units
			}
		}
	}
	return demand, true
}

// collapseFU partitions the fu axis into equivalence classes. With demand
// N, a limit v ≥ N (and v = 0, the dedicated spelling) elaborates the
// same units as v = N; below N each value is its own class. Without a
// provable demand nothing collapses: each value is a singleton, ordered
// by value with 0 (dedicated, the least constrained) last, which keeps
// the search exact at the cost of the collapse win.
func collapseFU(ax *campaign.Axes) []fuClass {
	demand, ok := fpDemand(ax)
	eff := func(v int) int {
		switch {
		case !ok && v == 0:
			return 1 << 30 // dedicated sorts last when demand is unknown
		case !ok:
			return v
		case v == 0 || v >= demand:
			return demand
		default:
			return v
		}
	}
	byEff := map[int]*fuClass{}
	var effs []int
	for i, v := range ax.FU {
		e := eff(v)
		if !ok {
			// No collapse: force distinct classes even on equal eff.
			e = e<<8 | i
		}
		c := byEff[e]
		if c == nil {
			c = &fuClass{eff: e}
			byEff[e] = c
			effs = append(effs, e)
		}
		c.members = append(c.members, axisVal{val: v, idx: i})
	}
	sort.Ints(effs)
	classes := make([]fuClass, len(effs))
	for i, e := range effs {
		classes[i] = *byEff[e] // members already ascend by axis index
	}
	return classes
}

// buildLattices constructs one lattice per memory kind and returns them
// with the total collapsed-leaf count.
func buildLattices(ax *campaign.Axes) ([]*lattice, int) {
	sortedVals := func(list []int) []axisVal {
		vs := make([]axisVal, len(list))
		for i, v := range list {
			vs[i] = axisVal{val: v, idx: i}
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a].val < vs[b].val })
		return vs
	}
	classes := collapseFU(ax)
	ports := sortedVals(ax.Ports)
	banks := sortedVals(ax.Banks)
	obj, _ := ParseObjective(ax.Objective) // Axes validated the string
	var lats []*lattice
	leaves := 0
	for mi, mem := range ax.Mem {
		l := &lattice{ax: ax, memIdx: mi, classes: classes, ports: ports, banks: banks, bankMult: 1, obj: obj}
		if mem == "cache" {
			// Cache mode never builds the scratchpad, so the SPM bank knob
			// is inert: one leaf stands for every bank value, attributed to
			// the lowest bank axis index (the first listed value).
			l.banks = []axisVal{{val: ax.Banks[0], idx: 0}}
			l.bankMult = len(ax.Banks)
		}
		leaves += len(l.classes) * len(l.ports) * len(l.banks)
		lats = append(lats, l)
	}
	return lats, leaves
}

// CollapsedSize returns how many distinct hardware configurations a space
// holds after equivalence collapse — the most a search could ever
// simulate, and therefore the honest admission-control size for a search
// submission (a sweep's size is the raw point count; a search's is this).
func CollapsedSize(s campaign.Space) (int, error) {
	ax, err := s.Axes()
	if err != nil {
		return 0, err
	}
	_, leaves := buildLattices(ax)
	return leaves, nil
}

// region is an axis-aligned box of the lattice: inclusive index ranges
// into classes/ports/banks. Its minimum corner (f0, p0, b0) is both the
// point the search simulates next and the corner the power/area lower
// bound is evaluated at; the cycle lower bound comes from the opposite
// (f1, p1) corner, where ports and units are widest.
type region struct {
	lat     *lattice
	f0, f1  int
	p0, p1  int
	b0, b1  int
	lb      Vec
	seq     uint64
	proxied bool
}

// points returns how many raw design points the region covers.
func (r *region) points() int {
	fu := 0
	for f := r.f0; f <= r.f1; f++ {
		fu += len(r.lat.classes[f].members)
	}
	return fu * (r.p1 - r.p0 + 1) * (r.b1 - r.b0 + 1) * r.lat.bankMult
}

// cornerIdx is the enumeration index of the region's minimum corner: the
// lowest-axis-index member of the f0 class at the smallest port and bank
// values — the exact attribution index of anything this corner measures.
func (r *region) cornerIdx() int {
	l := r.lat
	return l.enumIdx(l.classes[r.f0].members[0].idx, l.ports[r.p0].idx, l.banks[r.b0].idx)
}

// cornerPoints is how many raw points the corner's measurement covers
// (its FU class members times the collapsed bank multiplicity).
func (r *region) cornerPoints() int {
	return len(r.lat.classes[r.f0].members) * r.lat.bankMult
}

// computeLB fills r.lb with a provable componentwise lower bound over
// every point in the region:
//
//   - Cycles: the static cycle bound at the (f1, p1) corner. Every bound
//     component is non-increasing in ports (ceil-div by port count) and in
//     effective units (ceil-div by clamped unit count), and independent of
//     banks, so the widest corner bounds the whole box.
//   - Power/area: the static floor (FU+register leakage and area, plus the
//     Cacti SPM envelope under SPM mode) at the (f0, p0, b0) corner. Area
//     and leakage are non-decreasing in units, ports, and banks, and
//     measured power additionally includes dynamic energy, so the smallest
//     corner's floor bounds every measurement in the box.
//   - EnergyPJ: a cross-corner composition, each term minimized at the
//     corner where it is provably smallest:
//   - the FU + register dynamic floor is config-independent across the
//     region (FU limits change unit counts, never op counts or per-op
//     energies), so any corner serves — it is read at (f1, p1, b1);
//   - the SPM access-energy floor is non-increasing in banks (CACTI
//     read/write energy falls with bank subdivision) and independent
//     of units and ports, so the b1 corner bounds it;
//   - the leakage term multiplies the (f0, p0, b0) leakage floor
//     (non-decreasing in units, ports, banks) by the (f1, p1) cycle
//     bound times the clock period — each factor a positive lower
//     bound of its measured counterpart, so the product bounds
//     leakage x elapsed for every point in the box.
//   - EDP: EnergyPJ times the cycle bound times the period. Measured EDP
//     is energy x elapsed with both factors at or above their floors.
//
// A bound that cannot be computed (elaboration failure) degrades to zero,
// which no measured point can strictly dominate or undercut — the region
// simply becomes unprunable, never unsound.
func (r *region) computeLB() {
	l := r.lat
	r.lb = Vec{}
	wide := l.ax.JobAt(l.enumIdx(l.classes[r.f1].members[0].idx, l.ports[r.p1].idx, l.banks[r.b1].idx))
	se, seErr := salam.StaticEnergyLowerBound(wide.Kernel, wide.Opts)
	if seErr == nil {
		r.lb.Cycles = se.CyclesLB
	}
	small := l.ax.JobAt(r.cornerIdx())
	env, envErr := salam.StaticEnvelopeFor(small.Kernel, small.Opts)
	if envErr == nil {
		r.lb.PowerMW = env.StaticMW
		r.lb.AreaUM2 = env.AreaUM2
	}
	if seErr == nil && envErr == nil {
		delayNS := float64(se.CyclesLB) * se.PeriodNS
		r.lb.EnergyPJ = se.FUPJ + se.RegPJ + se.MemPJ + env.StaticMW*delayNS
		r.lb.EDP = r.lb.EnergyPJ * delayNS
	}
}

// split peels the measured minimum corner off the region and returns the
// up-to-three disjoint boxes covering the remainder. Their union plus the
// corner is exactly the region, so accounting stays exact.
func (r *region) split() []*region {
	var out []*region
	if r.f0 < r.f1 {
		s := *r
		s.f0, s.proxied = r.f0+1, false
		out = append(out, &s)
	}
	if r.p0 < r.p1 {
		s := *r
		s.f1, s.p0, s.proxied = r.f0, r.p0+1, false
		out = append(out, &s)
	}
	if r.b0 < r.b1 {
		s := *r
		s.f1, s.p1, s.b0, s.proxied = r.f0, r.p0, r.b0+1, false
		out = append(out, &s)
	}
	return out
}

// regionHeap is the best-bound priority queue: regions ordered by their
// lower-bound vector (under the edp objective EDP leads; then cycles,
// power, area), with the insertion sequence number as the final tiebreak
// so the order is total and deterministic at any worker count.
type regionHeap []*region

func (h regionHeap) Len() int { return len(h) }
func (h regionHeap) Less(i, j int) bool {
	a, b := h[i].lb, h[j].lb
	if h[i].lat.obj == ObjEDP && a.EDP != b.EDP {
		return a.EDP < b.EDP
	}
	if a.Cycles != b.Cycles {
		return a.Cycles < b.Cycles
	}
	if a.PowerMW != b.PowerMW {
		return a.PowerMW < b.PowerMW
	}
	if a.AreaUM2 != b.AreaUM2 {
		return a.AreaUM2 < b.AreaUM2
	}
	return h[i].seq < h[j].seq
}
func (h regionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *regionHeap) Push(x any)   { *h = append(*h, x.(*region)) }
func (h *regionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
