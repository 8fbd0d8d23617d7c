// Package mem implements the simulator's memory substrate: a flat
// functional memory for architectural values, banked set-associative
// write-back L1 caches with MSHRs and request coalescing, an inclusive
// shared L2 with a directory-based MESI coherence protocol, a contended
// crossbar, and a DRAM model.
//
// The design is functional-first, timing-directed (the M5 atomic/timing
// split the paper's MV5 simulator inherits): loads and stores read and
// write Memory at issue so program values are deterministic, while the
// cache hierarchy independently charges faithful latencies and maintains
// coherence state used to decide hits, misses, and divergence.
package mem

import (
	"fmt"
	"math"
	"sort"
)

const pageWords = 1 << 12 // 4096 words = 32 KB pages

// noPage is the lastPN sentinel: no page can have this number (it would
// require a word index past 2^64).
const noPage = ^uint64(0)

// Memory is the flat functional memory image. It is word (8-byte)
// addressable through byte addresses; unaligned accesses are rounded down
// to the containing word, which the program layer never produces.
//
// Memory also provides a bump allocator so workloads can lay out arrays at
// distinct, cache-realistic addresses.
//
// The page lookup is tiered for the issue-loop fast path: a one-entry
// last-page cache catches the streaming case (SIMD groups touch runs of
// consecutive addresses), a flat directory indexed by page number covers
// the bump-allocated range, and a map holds only out-of-range stragglers
// (addresses below the allocator base or past brk).
type Memory struct {
	// lastPN/lastPage: the most recently touched allocated page.
	lastPN   uint64
	lastPage *[pageWords]int64
	// dir[pn-dirBase] covers page numbers [dirBase, dirBase+len(dir)).
	dir     []*[pageWords]int64
	dirBase uint64
	// overflow holds pages outside the directory range.
	overflow map[uint64]*[pageWords]int64
	brk      uint64 // next free byte for Alloc
	// spare holds zeroed pages retired by Reset; page instantiation draws on
	// it before the heap, so a recycled image allocates only when a run
	// touches more pages than any before it.
	spare []*[pageWords]int64
}

// allocBase is where the bump allocator starts.
const allocBase = 1 << 20

// NewMemory returns an empty memory image. Allocation starts at a non-zero
// base so address 0 stays an obvious poison value.
func NewMemory() *Memory {
	m := &Memory{overflow: make(map[uint64]*[pageWords]int64)}
	m.Reset()
	return m
}

// Reset returns the image to NewMemory's state: every word reads zero and
// the allocator starts over, so a workload laid out after Reset gets the
// very addresses it would get in a new image (cache set mapping, and with
// it timing, depends on them). Touched pages are zeroed and kept as spares.
func (m *Memory) Reset() {
	for i, p := range m.dir {
		if p != nil {
			m.retire(p)
			m.dir[i] = nil
		}
	}
	if len(m.overflow) > 0 {
		// Map order only decides which spare slot a page lands in, and the
		// spares are all alike: zeroed pages.
		for _, p := range m.overflow {
			m.retire(p)
		}
		clear(m.overflow)
	}
	m.lastPN, m.lastPage = noPage, nil
	m.brk = allocBase
	m.dir = m.dir[:0]
	m.growDir()
}

func (m *Memory) retire(p *[pageWords]int64) {
	*p = [pageWords]int64{}
	m.spare = append(m.spare, p)
}

// growDir (re)sizes the flat directory to cover every page the bump
// allocator has handed out, migrating overflow pages that fall inside the
// new range. Called from Alloc, never from the Read/Write fast path.
func (m *Memory) growDir() {
	base := uint64(allocBase) / 8 / pageWords
	end := m.brk/8/pageWords + 1
	if base >= end {
		end = base + 1
	}
	need := end - base
	if len(m.dir) > 0 && m.dirBase == base && uint64(len(m.dir)) >= need {
		return
	}
	// Grow geometrically so repeated small Allocs don't re-copy the
	// directory each time.
	if have := uint64(len(m.dir)) * 2; need < have {
		need = have
	}
	if uint64(cap(m.dir)) >= need {
		// A recycled image: the slots past len were nilled by Reset.
		m.dir = m.dir[:need]
	} else {
		nd := make([]*[pageWords]int64, need)
		copy(nd, m.dir)
		m.dir = nd
	}
	m.dirBase = base
	// Migrate any overflow pages now covered by the directory. Map order
	// does not matter (each page lands in its own slot) but dwslint's
	// maprange check wants the sorted-keys idiom, which costs nothing here.
	if len(m.overflow) > 0 {
		pns := make([]uint64, 0, len(m.overflow))
		for pn := range m.overflow {
			pns = append(pns, pn)
		}
		sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
		for _, pn := range pns {
			if pn >= m.dirBase && pn-m.dirBase < uint64(len(m.dir)) {
				m.dir[pn-m.dirBase] = m.overflow[pn]
				delete(m.overflow, pn)
			}
		}
	}
}

// lookup returns the page for wordIdx, or nil if it was never written.
func (m *Memory) lookup(pn uint64) *[pageWords]int64 {
	if i := pn - m.dirBase; i < uint64(len(m.dir)) {
		return m.dir[i]
	}
	return m.overflow[pn]
}

// page returns the page for wordIdx, instantiating it if needed.
func (m *Memory) page(wordIdx uint64) *[pageWords]int64 {
	pn := wordIdx / pageWords
	if pn == m.lastPN {
		return m.lastPage
	}
	p := m.lookup(pn)
	if p == nil {
		if n := len(m.spare); n > 0 {
			p, m.spare[n-1] = m.spare[n-1], nil
			m.spare = m.spare[:n-1]
		} else {
			p = new([pageWords]int64)
		}
		if i := pn - m.dirBase; i < uint64(len(m.dir)) {
			m.dir[i] = p
		} else {
			m.overflow[pn] = p
		}
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// Read returns the word at byte address addr.
func (m *Memory) Read(addr uint64) int64 {
	w := addr / 8
	pn := w / pageWords
	if pn == m.lastPN {
		return m.lastPage[w%pageWords]
	}
	if p := m.lookup(pn); p != nil {
		m.lastPN, m.lastPage = pn, p
		return p[w%pageWords]
	}
	return 0
}

// Write stores v at byte address addr.
func (m *Memory) Write(addr uint64, v int64) {
	w := addr / 8
	m.page(w)[w%pageWords] = v
}

// ReadF returns the word at addr interpreted as float64.
func (m *Memory) ReadF(addr uint64) float64 { return math.Float64frombits(uint64(m.Read(addr))) }

// WriteF stores a float64 at addr.
func (m *Memory) WriteF(addr uint64, v float64) { m.Write(addr, int64(math.Float64bits(v))) }

// Alloc reserves n bytes aligned to align (which must be a power of two and
// at least 8) and returns the base address. Allocations never overlap.
func (m *Memory) Alloc(n uint64, align uint64) uint64 {
	if align < 8 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic("mem: Alloc alignment must be a power of two")
	}
	base := (m.brk + align - 1) &^ (align - 1)
	m.brk = base + n
	m.growDir()
	return base
}

// AllocWords reserves n 8-byte words aligned to a cache line and returns
// the base address.
func (m *Memory) AllocWords(n int) uint64 {
	return m.Alloc(uint64(n)*8, 128)
}

// Image is an initial memory image built off any machine: regions laid out
// by a bump allocator that starts where a fresh Memory's does and aligns as
// AllocWords does, so the addresses it hands out are the ones the same
// AllocWords calls on a fresh Memory return. Load copies it into a Memory;
// the image itself is never written after it is built, so one image can
// seed any number of machines, concurrently.
type Image struct {
	brk     uint64
	regions []imageRegion
}

type imageRegion struct {
	addr  uint64
	words []int64
}

// NewImage returns an empty image whose allocator is at a fresh Memory's
// base.
func NewImage() *Image { return &Image{brk: allocBase} }

// AllocWords reserves n words like Memory.AllocWords and returns the base
// address; the region reads zero unless Set gives it contents.
func (im *Image) AllocWords(n int) uint64 {
	base := (im.brk + 127) &^ 127
	im.brk = base + uint64(n)*8
	return base
}

// Set makes words the contents starting at addr. The image keeps the
// slice, which the caller must not write afterwards.
func (im *Image) Set(addr uint64, words []int64) {
	im.regions = append(im.regions, imageRegion{addr, words})
}

// Bytes is the host memory the image's contents hold.
func (im *Image) Bytes() int {
	n := 0
	for _, r := range im.regions {
		n += 8 * len(r.words)
	}
	return n
}

// Load lays im out in m, which must not have allocated since NewMemory or
// Reset: the image's addresses are only the ones m's own allocator would
// have handed out if it starts at its base. Afterwards m reads exactly
// what im holds and allocates past im's last region.
func (m *Memory) Load(im *Image) error {
	if m.brk != allocBase {
		return fmt.Errorf("mem: image loaded into a memory that has allocated up to %#x", m.brk)
	}
	m.brk = im.brk
	m.growDir()
	for _, r := range im.regions {
		for w, words := r.addr/8, r.words; len(words) > 0; {
			n := copy(m.page(w)[w%pageWords:], words)
			words = words[n:]
			w += uint64(n)
		}
	}
	return nil
}

// Hash returns a deterministic FNV-1a digest of the memory image. Pages are
// folded in ascending page-number order, and all-zero pages are skipped so
// the digest depends only on the architecturally visible contents (a page
// instantiated by writing zeroes hashes like an untouched one). The
// policy-equivalence tests compare digests across scheduling policies.
func (m *Memory) Hash() uint64 {
	pns := make([]uint64, 0, len(m.overflow))
	for pn := range m.overflow {
		pns = append(pns, pn)
	}
	for i, p := range m.dir {
		if p != nil {
			pns = append(pns, m.dirBase+uint64(i))
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, pn := range pns {
		p := m.lookup(pn)
		zero := true
		for _, v := range p {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		word(pn)
		for _, v := range p {
			word(uint64(v))
		}
	}
	return h
}
