package wpu

// The per-WPU instruction cache of Table 3 (16 KB, 4-way, 128 B lines,
// 1-cycle hits). One instruction is fetched per cycle and broadcast to all
// lanes, so the I-cache is unbanked; with our fixed 8-byte instruction
// encoding a line holds 16 instructions. Kernels are small, so after the
// cold start every fetch hits — exactly the regime the paper's
// configuration implies — but the model is kept faithful: a cold fetch
// stalls issue for the refill latency. The geometry and the refill latency
// are program's Table 3 constants and nothing varies them.

import "repro/internal/program"

type icacheLine struct {
	tag   int
	valid bool
	// lastUse is the clock at the start of the line's latest run of
	// consecutive fetches. Stamping the first fetch of a run rather than
	// every fetch leaves the LRU order unchanged: runs of different lines
	// never overlap, so the line whose run started later is also the one
	// fetched last.
	lastUse uint64
}

// icache is a tiny set-associative tag store over instruction indices.
type icache struct {
	sets [][]icacheLine
	// clock counts runs: it moves only when the fetched line changes.
	clock uint64
	// MRU shortcut: sequential fetches hit the same line ~instPerLine times
	// in a row, and a fetch of the line the last one found skips the set
	// walk and writes nothing. Only fetchWalk writes a tag, and it records
	// in lastLineNo the line it hit or filled, so that line is resident for
	// as long as lastLineNo names it.
	lastLineNo int

	Misses uint64
}

// newICache builds an empty cache of lines/ways sets (the WPU's is
// program.ICacheLines × ICacheWays; the unit tests build smaller ones).
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
	c.clock, c.Misses = 0, 0
	c.lastLineNo = -1 // never a real line number: PCs are ≥ 0
}

// Fetch looks up the line holding the instruction at pc, filling on miss.
// It reports whether the fetch hit. The body is only the MRU fast path so
// it inlines into issueOne; the set walk lives in fetchWalk.
func (c *icache) Fetch(pc int) bool {
	lineNo := pc / program.ICacheInstPerLine
	if lineNo == c.lastLineNo {
		return true
	}
	return c.fetchWalk(lineNo)
}

// fetchWalk is Fetch's slow path, the first fetch of a run: the
// set-associative walk and, on miss, the LRU fill.
func (c *icache) fetchWalk(lineNo int) bool {
	c.clock++
	set := c.sets[lineNo%len(c.sets)]
	victim := &set[0]
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == lineNo {
			w.lastUse = c.clock
			c.lastLineNo = lineNo
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
	c.lastLineNo = lineNo
	return false
}
