package mem

import "math/bits"

// Coherence is the MESI state of a line held in an L1 cache.
type Coherence uint8

// MESI states. The L2 directory grants Exclusive on unshared reads (the E
// optimisation), Shared otherwise, and Modified for writes.
const (
	Invalid Coherence = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (c Coherence) String() string {
	switch c {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// way is one line frame. The directory fields (sharers, owner) are used
// only by the L2; an L1 uses state/dirty. The zero value is an invalid
// frame: every field is written when the frame is filled (victim stamps
// idx, the fill path the rest) and read only while valid, so a store needs
// no initialisation pass and clears with one memclr.
type way struct {
	lineAddr uint64
	idx      int32 // position in frames/tags, stamped by victim
	valid    bool
	state    Coherence
	dirty    bool
	sharers  uint64 // L2 directory: bitmask of L1 IDs holding the line Shared
	owner    int8   // L2 directory: L1 ID holding E/M, or -1
	lastUse  uint64
}

// store is a set-associative line array with LRU replacement. Ways == 0 at
// construction selects full associativity. The frames live in one flat
// array (set i is frames[i*ways : (i+1)*ways]): set selection is a shift
// and mask plus one bounds-checked reslice, with no per-set slice headers
// to chase — this lookup runs on every simulated cache access.
type store struct {
	frames []way
	// tags mirrors the valid frames' line addresses in a dense array:
	// lookup's tag probe then touches one or two cache lines per set instead
	// of striding across 40-byte frames. A valid frame's tag is its line
	// address with the low bit set (line addresses are line-aligned and
	// lines are at least two bytes, so the bit is free); an invalid frame's
	// tag is 0 and matches nothing. Kept in sync by setLine/invalidate.
	tags     []uint64
	numSets  int
	ways     int
	lineSize uint64
	// lineShift/setMask turn setOf's divide+modulo into shift+and.
	// numSets is lines/ways and may not be a power of two for odd way
	// counts; setMask < 0 selects the slow modulo path then.
	lineShift uint
	setMask   int64
	useClock  uint64
}

func newStore(sizeBytes, ways int, lineSize uint64) *store {
	s := &store{}
	s.reset(sizeBytes, ways, lineSize)
	return s
}

// reset empties the store, keeping its arrays when the geometry is
// unchanged and reallocating them otherwise. useClock advances on every
// fill, so a zero clock means nothing was ever installed and there is
// nothing to clear — resetting an idle store costs nothing.
func (s *store) reset(sizeBytes, ways int, lineSize uint64) {
	if lineSize < 2 || lineSize&(lineSize-1) != 0 {
		panic("mem: line size must be a power of two")
	}
	lines := sizeBytes / int(lineSize)
	if lines == 0 {
		panic("mem: cache smaller than one line")
	}
	if ways <= 0 || ways > lines {
		ways = lines // fully associative
	}
	numSets := lines / ways
	if numSets == 0 {
		numSets = 1
	}
	if len(s.frames) != numSets*ways {
		s.frames = make([]way, numSets*ways)
		s.tags = make([]uint64, numSets*ways)
	} else if s.useClock != 0 {
		clear(s.frames)
		clear(s.tags)
	}
	s.numSets = numSets
	s.ways = ways
	s.lineSize = lineSize
	s.lineShift = uint(bits.TrailingZeros64(lineSize))
	s.setMask = -1
	if numSets&(numSets-1) == 0 {
		s.setMask = int64(numSets - 1)
	}
	s.useClock = 0
}

// validTag marks a tag-array entry as holding a line; see store.tags.
const validTag = 1

// invalidate releases a frame, clearing its tag so lookup's
// single-compare scan stays sound. Every site that clears valid must go
// through here.
func (s *store) invalidate(w *way) {
	w.valid = false
	s.tags[w.idx] = 0
}

// setLine installs a line address into a frame, keeping the dense tag
// array in sync. Every site that writes lineAddr must go through here.
func (s *store) setLine(w *way, lineAddr uint64) {
	w.lineAddr = lineAddr
	s.tags[w.idx] = lineAddr | validTag
}

// Line returns the line-aligned address containing addr.
func (s *store) Line(addr uint64) uint64 { return addr &^ (s.lineSize - 1) }

func (s *store) baseOf(lineAddr uint64) int {
	idx := int((lineAddr >> s.lineShift) & uint64(s.setMask))
	if s.setMask < 0 {
		idx = int((lineAddr >> s.lineShift) % uint64(s.numSets))
	}
	return idx * s.ways
}

// lookup returns the frame holding lineAddr, or nil. Invalid frames have a
// zero tag, so one compare per way suffices — against the dense tag array,
// not the frames themselves.
func (s *store) lookup(lineAddr uint64) *way {
	base := s.baseOf(lineAddr)
	tags := s.tags[base : base+s.ways]
	want := lineAddr | validTag
	for i := range tags {
		if tags[i] == want {
			return &s.frames[base+i]
		}
	}
	return nil
}

// touch marks a frame most-recently-used.
func (s *store) touch(w *way) {
	s.useClock++
	w.lastUse = s.useClock
}

// victim returns the frame to fill for lineAddr: an invalid frame if one
// exists, otherwise the least recently used.
func (s *store) victim(lineAddr uint64) *way {
	base := s.baseOf(lineAddr)
	set := s.frames[base : base+s.ways]
	var lru *way
	for i := range set {
		if !set[i].valid {
			set[i].idx = int32(base + i)
			return &set[i]
		}
		if lru == nil || set[i].lastUse < lru.lastUse {
			lru = &set[i]
		}
	}
	return lru
}

// forEachValid visits every valid frame (used for statistics and tests).
func (s *store) forEachValid(fn func(*way)) {
	for i := range s.frames {
		if s.frames[i].valid {
			fn(&s.frames[i])
		}
	}
}
