package main

import (
	"bytes"
	"strconv"
	"strings"

	"gosalam/internal/sim"
)

// statTree is a flattened stats dump: full dotted path -> value.
type statTree map[string]float64

// readStats flattens a stat group through its public dump.
func readStats(g *sim.Group) statTree {
	var buf bytes.Buffer
	g.Dump(&buf)
	out := statTree{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// groups returns the stat group paths that hold a stat with the given leaf
// name — how components of one kind are found without knowing their names.
func (t statTree) groups(leaf string) []string {
	var gs []string
	for path := range t {
		if g, l, ok := cutLast(path); ok && l == leaf {
			gs = append(gs, g)
		}
	}
	return gs
}

func cutLast(path string) (group, leaf string, ok bool) {
	i := strings.LastIndexByte(path, '.')
	if i < 0 {
		return "", "", false
	}
	return path[:i], path[i+1:], true
}

// sumOver adds leaf over every group that has the marker stat.
func (t statTree) sumOver(marker, leaf string) float64 {
	s := 0.0
	for _, g := range t.groups(marker) {
		s += t[g+"."+leaf]
	}
	return s
}

// layerCounts accumulates the engine and memory counters of one or more
// runs, identified by the stats each component kind registers.
type layerCounts struct {
	cycles, committed, stalls, hazards float64
	spmAccesses, spmConflicts          float64
	cacheHits, cacheAccesses, mshr     float64
	rowHits, rowAccesses               float64
	dmaBytes, xbarRouted, streamStalls float64
}

func (c *layerCounts) add(t statTree) {
	// Engines are the groups with a "committed" counter.
	c.cycles += t.sumOver("committed", "cycles")
	c.committed += t.sumOver("committed", "committed")
	c.stalls += t.sumOver("committed", "stall_cycles")
	c.hazards += t.sumOver("committed", "hazard_cycles")
	spmAcc := t.sumOver("bank_conflict_cycles", "reads") + t.sumOver("bank_conflict_cycles", "writes")
	c.spmAccesses += spmAcc
	c.spmConflicts += t.sumOver("bank_conflict_cycles", "bank_conflict_cycles")
	c.cacheHits += t.sumOver("mshr_stall_cycles", "hits")
	c.cacheAccesses += t.sumOver("mshr_stall_cycles", "hits") + t.sumOver("mshr_stall_cycles", "misses")
	c.mshr += t.sumOver("mshr_stall_cycles", "mshr_stall_cycles")
	c.rowHits += t.sumOver("row_hits", "row_hits")
	c.rowAccesses += t.sumOver("row_hits", "row_hits") + t.sumOver("row_hits", "row_misses")
	// DMA engines (block and stream) count transfers; DRAM does not.
	c.dmaBytes += t.sumOver("transfers", "bytes")
	c.xbarRouted += t.sumOver("route_errors", "routed")
	c.streamStalls += t.sumOver("stalls_full", "stalls_full") + t.sumOver("stalls_full", "stalls_empty")
}

func (c *layerCounts) publish(b *bench) {
	b.set("core.cycles", c.cycles)
	b.set("core.committed_ops", c.committed)
	b.set("core.stall_cycles", c.stalls)
	b.set("core.hazard_cycles", c.hazards)
	b.set("mem.spm.accesses", c.spmAccesses)
	b.set("mem.spm.bank_conflict_cycles", c.spmConflicts)
	b.set("mem.cache.hit_ratio", ratio(c.cacheHits, c.cacheAccesses))
	b.set("mem.cache.mshr_stall_cycles", c.mshr)
	b.set("mem.dram.row_hit_ratio", ratio(c.rowHits, c.rowAccesses))
	b.set("mem.dma.bytes", c.dmaBytes)
	b.set("mem.xbar.routed", c.xbarRouted)
	b.set("mem.stream.stalls", c.streamStalls)
}
