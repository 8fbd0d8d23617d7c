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

// store is a set-associative line array with LRU replacement. Ways == 0 at
// construction selects full associativity. A line frame is an index into
// dense per-field arrays (set i is frames i*ways .. (i+1)*ways-1): set
// selection is a shift and mask, and lookup's tag probe touches one or two
// host cache lines per set — this lookup runs on every simulated cache
// access. The zero value of every array is an empty frame, so a store
// needs no initialisation pass and clears with one memclr per array.
type store struct {
	// tags is the only record of which line a frame holds: a valid frame's
	// tag is its line address with the low bit set (line addresses are
	// line-aligned and lines are at least two bytes, so the bit is free);
	// an empty frame's tag is 0 and matches nothing.
	tags []uint64
	// lru is the useClock value of a frame's latest touch. It is read only
	// for valid frames, so emptying a frame leaves its stamp.
	lru []uint64
	// meta packs a frame's MESI state (an L1's; the L2 keeps Invalid) with
	// its dirty bit, metaDirty.
	meta     []uint8
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

// validTag marks a tag-array entry as holding a line; see store.tags.
const validTag = 1

// metaDirty is the dirty bit of store.meta; the bits below it hold the
// frame's Coherence.
const metaDirty = 0x80

func newStore(sizeBytes, ways int, lineSize uint64) *store {
	s := &store{}
	s.reset(sizeBytes, ways, lineSize)
	return s
}

// reset empties the store, keeping its arrays when the geometry is
// unchanged and reallocating them otherwise. useClock advances on every
// touch, and every filled frame is touched, so a zero clock means nothing
// was ever installed and there is nothing to clear — resetting an idle
// store costs nothing.
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
	if n := numSets * ways; len(s.tags) != n {
		s.tags = make([]uint64, n)
		s.lru = make([]uint64, n)
		s.meta = make([]uint8, n)
	} else if s.useClock != 0 {
		clear(s.tags)
		clear(s.lru)
		clear(s.meta)
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

// frames returns the number of line frames.
func (s *store) frames() int { return len(s.tags) }

// Line returns the line-aligned address containing addr.
func (s *store) Line(addr uint64) uint64 { return addr &^ (s.lineSize - 1) }

func (s *store) baseOf(lineAddr uint64) int {
	idx := int((lineAddr >> s.lineShift) & uint64(s.setMask))
	if s.setMask < 0 {
		idx = int((lineAddr >> s.lineShift) % uint64(s.numSets))
	}
	return idx * s.ways
}

// lookup returns the frame holding lineAddr, or -1. Empty frames have a
// zero tag, so one compare per way suffices.
func (s *store) lookup(lineAddr uint64) int {
	base := s.baseOf(lineAddr)
	tags := s.tags[base : base+s.ways]
	want := lineAddr | validTag
	for i := range tags {
		if tags[i] == want {
			return base + i
		}
	}
	return -1
}

// valid reports whether frame i holds a line.
func (s *store) valid(i int) bool { return s.tags[i] != 0 }

// lineOf returns the line address frame i holds; i must be valid.
func (s *store) lineOf(i int) uint64 { return s.tags[i] &^ validTag }

// state returns frame i's MESI state.
func (s *store) state(i int) Coherence { return Coherence(s.meta[i] &^ metaDirty) }

// dirty reports whether frame i holds data newer than the level below.
func (s *store) dirty(i int) bool { return s.meta[i]&metaDirty != 0 }

// setState sets frame i's MESI state, keeping its dirty bit.
func (s *store) setState(i int, c Coherence) { s.meta[i] = s.meta[i]&metaDirty | uint8(c) }

// write records a store into frame i: Modified and dirty.
func (s *store) write(i int) { s.meta[i] = uint8(Modified) | metaDirty }

// markDirty sets frame i's dirty bit.
func (s *store) markDirty(i int) { s.meta[i] |= metaDirty }

// setClean sets frame i's state and clears its dirty bit.
func (s *store) setClean(i int, c Coherence) { s.meta[i] = uint8(c) }

// fill installs lineAddr into frame i, clean and Invalid; the caller sets
// the state and touches the frame.
func (s *store) fill(i int, lineAddr uint64) {
	s.tags[i] = lineAddr | validTag
	s.meta[i] = 0
}

// invalidate empties frame i.
func (s *store) invalidate(i int) {
	s.tags[i] = 0
	s.meta[i] = 0
}

// touch marks frame i most-recently-used.
func (s *store) touch(i int) {
	s.useClock++
	s.lru[i] = s.useClock
}

// victim returns the frame to fill for lineAddr: the first empty frame of
// its set if one exists, otherwise the least recently used.
func (s *store) victim(lineAddr uint64) int {
	base := s.baseOf(lineAddr)
	for i, t := range s.tags[base : base+s.ways] {
		if t == 0 {
			return base + i
		}
	}
	lru := s.lru[base : base+s.ways]
	v := 0
	for i := 1; i < len(lru); i++ {
		if lru[i] < lru[v] {
			v = i
		}
	}
	return base + v
}

// forEachValid visits every valid frame in index order (used for
// statistics and tests).
func (s *store) forEachValid(fn func(i int)) {
	for i, t := range s.tags {
		if t != 0 {
			fn(i)
		}
	}
}
