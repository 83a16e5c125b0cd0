package timeline

import (
	"bufio"
	"io"
	"strconv"
)

// CSV streams a per-cycle engine profile: one row per engine Cycle event
// holding the engine clock cycle (start tick / period), its attributed
// class, and one 0/1 column per other lane of the engine's group —
// port.load, port.store and one fu.<class> per instantiated FU class — set
// when that lane recorded a busy slice in the cycle. The engine emits a
// cycle's slices after its Cycle event, so a row is written when the next
// Cycle arrives or at Flush; memory stays constant however long the run.
//
// The profiled engine is the first group to register an "engine" lane;
// other engines' events are ignored, as are instants and counters. Write
// errors are sticky and surface from Flush.
type CSV struct {
	w *bufio.Writer
	// engine is the profiled engine's cycle lane (-1 until one registers)
	// and group its component group.
	engine LaneID
	group  string
	// col[lane] is the lane's column index, or -1 outside the group.
	col  []int32
	cols []string
	// The pending row: the cycle's start tick and period, its class, and
	// the busy bit per column.
	pending    bool
	start, dur uint64
	class      CycleClass
	busy       []bool
	header     bool
	line       []byte
}

// NewCSV returns a recorder that streams the profile to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: bufio.NewWriter(w), engine: -1} }

func (c *CSV) Lane(group, name string) LaneID {
	id := LaneID(len(c.col))
	col := int32(-1)
	switch {
	case c.engine < 0 && name == "engine":
		c.engine, c.group = id, group
	case c.engine >= 0 && group == c.group:
		col = int32(len(c.cols))
		c.cols = append(c.cols, name)
		c.busy = append(c.busy, false)
	}
	c.col = append(c.col, col)
	return id
}

func (c *CSV) Slice(lane LaneID, _, _ uint64, _ string) {
	if col := c.col[lane]; col >= 0 {
		c.busy[col] = true
	}
}

func (c *CSV) Instant(LaneID, uint64, string)  {}
func (c *CSV) Counter(LaneID, uint64, float64) {}

func (c *CSV) Cycle(lane LaneID, start, dur uint64, class CycleClass) {
	if lane != c.engine {
		return
	}
	c.writeRow()
	c.pending, c.start, c.dur, c.class = true, start, dur, class
	for i := range c.busy {
		c.busy[i] = false
	}
}

// Flush writes the last row (and the header, if no row was written yet)
// and flushes the underlying writer, returning the first write error.
func (c *CSV) Flush() error {
	c.writeRow()
	c.writeHeader()
	return c.w.Flush()
}

func (c *CSV) writeHeader() {
	if c.header {
		return
	}
	c.header = true
	c.w.WriteString("cycle,class")
	for _, n := range c.cols {
		c.w.WriteByte(',')
		c.w.WriteString(n)
	}
	c.w.WriteByte('\n')
}

func (c *CSV) writeRow() {
	if !c.pending {
		return
	}
	c.pending = false
	c.writeHeader()
	b := strconv.AppendUint(c.line[:0], c.start/c.dur, 10)
	b = append(b, ',')
	b = append(b, c.class.String()...)
	for _, busy := range c.busy {
		if busy {
			b = append(b, ",1"...)
		} else {
			b = append(b, ",0"...)
		}
	}
	c.line = append(b, '\n')
	c.w.Write(c.line)
}
