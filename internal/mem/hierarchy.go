package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/obs"
)

// HierarchyConfig assembles the full memory system of Table 3: per-WPU
// private L1 D-caches, a crossbar, the shared inclusive L2, the memory bus,
// and DRAM.
type HierarchyConfig struct {
	L1 L1Config
	L2 L2Config
	// XbarLat/XbarOcc model the L1↔L2 crossbar (300 MHz, 57 GB/s in the
	// paper: ≈2 cycles of occupancy per 128 B line at 1 GHz).
	XbarLat engine.Cycle
	XbarOcc engine.Cycle
	// MemBusOcc models the 16 GB/s memory bus (≈8 cycles per line).
	MemBusOcc engine.Cycle
	DRAMLat   engine.Cycle
	// Trace is the per-System observability sink handed to every cache;
	// nil (the default) disables event emission entirely.
	Trace *obs.Trace
}

// Hierarchy is the assembled memory system shared by all WPUs.
type Hierarchy struct {
	Mem  *Memory
	L1s  []*L1
	L2   *L2
	Xbar *Channel
	Bus  *Channel
	DRAM *DRAM
}

// NewHierarchy builds the memory system with numL1 private caches attached.
func NewHierarchy(q *engine.Queue, numL1 int, cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		Mem:  NewMemory(),
		Xbar: NewChannel(q, cfg.XbarLat, cfg.XbarOcc),
		Bus:  NewChannel(q, 0, cfg.MemBusOcc),
	}
	h.DRAM = NewDRAM(q, h.Bus, cfg.DRAMLat)
	h.L2 = NewL2(q, cfg.L2, numL1, h.DRAM, cfg.Trace)
	h.Reset(numL1, cfg)
	return h
}

// Reset returns the whole memory system to its freshly built state under
// cfg with numL1 private caches — empty functional memory, cold caches,
// idle channels, zero statistics — reusing every array whose geometry cfg
// leaves unchanged. The event queue the components were built on must be
// reset by the caller: events still in flight refer to state this discards.
func (h *Hierarchy) Reset(numL1 int, cfg HierarchyConfig) {
	h.Mem.Reset()
	h.Xbar.reset(cfg.XbarLat, cfg.XbarOcc)
	h.Bus.reset(0, cfg.MemBusOcc)
	h.DRAM.reset(cfg.DRAMLat)
	h.L2.reset(cfg.L2, numL1, cfg.Trace)
	keep := min(numL1, len(h.L1s))
	clear(h.L1s[keep:])
	h.L1s = h.L1s[:keep]
	for i := 0; i < numL1; i++ {
		if i == len(h.L1s) {
			h.L1s = append(h.L1s, NewL1(i, h.L2.q, cfg.L1, h.Xbar, h.L2, cfg.Trace))
			continue
		}
		h.L1s[i].reset(cfg.L1, cfg.Trace)
		h.L2.attach(h.L1s[i])
	}
}

// CheckCoherence validates the global MESI invariants; tests and the
// simulator's debug mode call it. It returns a description of the first
// violation found, or "".
//
// Invariants checked (over installed lines, i.e. ignoring in-flight fills):
//   - single writer: at most one L1 holds a line Modified/Exclusive, and
//     then no other L1 holds it at all;
//   - directory precision: an L1 holding a line S appears in the sharer
//     set, and an L1 holding M/E is the registered owner;
//   - inclusion: every line in an L1 is present in the L2;
//   - directory soundness: every sharer and owner the L2 records holds the
//     line or has a miss in flight for it;
//   - no stale data: dirty L1 data only exists under Modified — a dirty
//     line in any other state would be dropped without writeback on
//     invalidation or silently diverge from the L2 copy.
func (h *Hierarchy) CheckCoherence() string {
	type holder struct {
		id    int
		state Coherence
	}
	type lineHolders struct {
		lineAddr uint64
		hs       []holder
	}
	// lines is iterated in insertion order (L1 id, then frame order within
	// each L1) so the first violation reported is deterministic; the map is
	// a lookup index only and is never ranged over.
	var lines []lineHolders
	index := make(map[uint64]int)
	for _, c := range h.L1s {
		id := c.ID
		var bad string
		st := c.store
		st.forEachValid(func(i int) {
			lineAddr, state := st.lineOf(i), st.state(i)
			if st.dirty(i) && state != Modified && bad == "" {
				bad = sprintf("stale data: L1 %d holds dirty line %#x in state %v", id, lineAddr, state)
			}
			li, ok := index[lineAddr]
			if !ok {
				li = len(lines)
				index[lineAddr] = li
				lines = append(lines, lineHolders{lineAddr: lineAddr})
			}
			lines[li].hs = append(lines[li].hs, holder{id, state})
		})
		if bad != "" {
			return bad
		}
	}
	for _, lh := range lines {
		lineAddr, hs := lh.lineAddr, lh.hs
		l2i := h.L2.st.lookup(lineAddr)
		if l2i < 0 {
			return sprintf("inclusion violated: line %#x in L1 but not L2", lineAddr)
		}
		exclusive := -1
		for _, x := range hs {
			if x.state == Modified || x.state == Exclusive {
				exclusive = x.id
			}
		}
		if exclusive >= 0 {
			if len(hs) > 1 {
				return sprintf("single-writer violated: line %#x held by %d L1s with an M/E copy", lineAddr, len(hs))
			}
			if owner := h.L2.ownerOf(l2i); owner != exclusive {
				return sprintf("directory owner for %#x is %d, want %d", lineAddr, owner, exclusive)
			}
			continue
		}
		for _, x := range hs {
			if !h.L2.isSharer(l2i, x.id) {
				return sprintf("directory sharers for %#x miss L1 %d", lineAddr, x.id)
			}
		}
	}
	// The converse, in L2 frame order: every L1 the directory names holds
	// the line or has a miss in flight for it.
	l2 := h.L2
	for i := range l2.st.frames() {
		if !l2.st.valid(i) {
			continue
		}
		lineAddr := l2.st.lineOf(i)
		if o := l2.ownerOf(i); o >= 0 && !h.L1s[o].holdsOrFetches(lineAddr) {
			return sprintf("directory owner L1 %d of %#x neither holds nor fetches it", o, lineAddr)
		}
		for b, set := range l2.sharers[i*l2.sharerBytes : (i+1)*l2.sharerBytes] {
			for ; set != 0; set &= set - 1 {
				if id := b*8 + bits.TrailingZeros8(set); !h.L1s[id].holdsOrFetches(lineAddr) {
					return sprintf("directory sharer L1 %d of %#x neither holds nor fetches it", id, lineAddr)
				}
			}
		}
	}
	return ""
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
