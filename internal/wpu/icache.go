package wpu

// The per-WPU instruction cache of Table 3 (16 KB, 4-way, 128 B lines,
// 1-cycle hits). One instruction is fetched per cycle and broadcast to all
// lanes, so the I-cache is unbanked; with our fixed 8-byte instruction
// encoding a line holds 16 instructions. Kernels are small, so after the
// cold start every fetch hits — exactly the regime the paper's
// configuration implies — but the model is kept faithful: a cold fetch
// stalls issue for the refill latency.

import "repro/internal/program"

// The geometry is Table 3's and nothing varies it; the cost model's icache
// budget counts the same lines at the same refill latency, so the three it
// needs are declared there.
const (
	icacheLines       = program.ICacheLines
	icacheWays        = 4
	icacheInstPerLine = program.ICacheInstPerLine
	icacheMissLat     = program.IMissLat // charged to issue on a cold fetch
)

type icacheLine struct {
	tag     int
	valid   bool
	lastUse uint64
}

// icache is a tiny set-associative tag store over instruction indices.
type icache struct {
	sets  [][]icacheLine
	clock uint64
	// MRU shortcut: sequential fetches hit the same line ~instPerLine times
	// in a row; revalidating a cached way pointer skips the set walk. The
	// pointer aims into sets' backing arrays (never reallocated), and the
	// tag check makes a stale pointer merely miss the shortcut.
	lastLineNo int
	lastWay    *icacheLine

	Fetches uint64
	Misses  uint64
}

// newICache builds an empty cache of lines/ways sets (the WPU's is
// icacheLines × icacheWays; the unit tests build smaller ones).
func newICache(lines, ways int) *icache {
	c := &icache{sets: make([][]icacheLine, lines/ways)}
	for i := range c.sets {
		c.sets[i] = make([]icacheLine, ways)
	}
	c.reset()
	return c
}

// reset empties the cache and zeroes its counters.
func (c *icache) reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock, c.Fetches, c.Misses = 0, 0, 0
	// lastLineNo = -1 never matches a real line number (PCs are ≥ 0), so
	// the fast path needs no nil or validity test on lastWay: a matching
	// lastLineNo implies lastWay was hit or filled for that very line, and
	// frames only ever change tag through a refill (re-checked by tag).
	c.lastLineNo = -1
	c.lastWay = &c.sets[0][0]
}

// Fetch looks up the line holding the instruction at pc, filling on miss.
// It reports whether the fetch hit. The body is only the MRU fast path so
// it inlines into issueOne; the set walk lives in fetchWalk.
func (c *icache) Fetch(pc int) bool {
	c.Fetches++
	c.clock++
	lineNo := pc / icacheInstPerLine
	if w := c.lastWay; lineNo == c.lastLineNo && w.tag == lineNo {
		w.lastUse = c.clock
		return true
	}
	return c.fetchWalk(lineNo)
}

// fetchWalk is Fetch's slow path: the set-associative walk and, on miss,
// the LRU fill.
func (c *icache) fetchWalk(lineNo int) bool {
	set := c.sets[lineNo%len(c.sets)]
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == lineNo {
			w.lastUse = c.clock
			c.lastLineNo, c.lastWay = lineNo, w
			return true
		}
		switch {
		case !victim.valid:
			// Keep the invalid frame.
		case !w.valid, w.lastUse < victim.lastUse:
			victim = w
		}
	}
	c.Misses++
	victim.valid = true
	victim.tag = lineNo
	victim.lastUse = c.clock
	c.lastLineNo, c.lastWay = lineNo, victim
	return false
}
