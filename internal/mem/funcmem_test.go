package mem

import (
	"math/rand"
	"testing"
)

// TestMemoryTieredLookup drives all three page-lookup tiers — last-page
// cache, flat directory, overflow map — against a reference map, including
// addresses below the allocator base and far past brk.
func TestMemoryTieredLookup(t *testing.T) {
	m := NewMemory()
	ref := map[uint64]int64{}
	rng := rand.New(rand.NewSource(3))
	base := m.AllocWords(4 * pageWords) // grows the directory
	regions := []uint64{
		base,               // directory tier
		1 << 10,            // below the 1 MB allocator base: overflow tier
		1 << 40,            // far past brk: overflow tier
		base + 8*pageWords, // directory pages allocated later
	}
	m.AllocWords(8 * pageWords)
	for step := 0; step < 20000; step++ {
		r := regions[rng.Intn(len(regions))]
		addr := r + uint64(rng.Intn(2*pageWords))*8
		if rng.Intn(2) == 0 {
			v := rng.Int63()
			m.Write(addr, v)
			ref[addr] = v
		} else if got, want := m.Read(addr), ref[addr]; got != want {
			t.Fatalf("step %d: Read(%#x) = %d, want %d", step, addr, got, want)
		}
	}
	for addr, want := range ref {
		if got := m.Read(addr); got != want {
			t.Fatalf("final Read(%#x) = %d, want %d", addr, got, want)
		}
	}
}

// TestMemoryHashTierIndependent: the digest must depend only on the
// architectural contents, not on which tier a page landed in or the write
// order that instantiated it.
func TestMemoryHashTierIndependent(t *testing.T) {
	writeAll := func(addrs [][2]uint64, alloc bool) uint64 {
		m := NewMemory()
		if alloc {
			// With an allocation first, in-range pages land in the flat
			// directory; without it they start in the overflow map.
			m.AllocWords(16 * pageWords)
		}
		for _, av := range addrs {
			m.Write(av[0], int64(av[1]))
		}
		return m.Hash()
	}
	addrs := [][2]uint64{
		{1 << 20, 11}, {1<<20 + 8*pageWords*8, 22}, {1 << 30, 33}, {512, 44},
	}
	h1 := writeAll(addrs, true)
	h2 := writeAll(addrs, false)
	rev := make([][2]uint64, len(addrs))
	for i := range addrs {
		rev[len(addrs)-1-i] = addrs[i]
	}
	h3 := writeAll(rev, true)
	if h1 != h2 || h1 != h3 {
		t.Fatalf("hash depends on tier or write order: %#x %#x %#x", h1, h2, h3)
	}
	// A page written with only zeroes hashes like an untouched one.
	m := NewMemory()
	m.AllocWords(16 * pageWords)
	want := m.Hash()
	m.Write(1<<20, 0)
	m.Write(1<<30, 0)
	if got := m.Hash(); got != want {
		t.Fatalf("zero-filled pages changed the hash: %#x vs %#x", got, want)
	}
}

// TestMemoryDirGrowthPreservesData: growing the directory (repeated Allocs)
// must migrate overflow pages without losing or duplicating words.
func TestMemoryDirGrowthPreservesData(t *testing.T) {
	m := NewMemory()
	// Write past brk so the page starts in the overflow map...
	addr := uint64(1<<20) + 64*pageWords*8
	m.Write(addr, 99)
	// ...then allocate past it so the directory swallows that range.
	m.AllocWords(128 * pageWords)
	if got := m.Read(addr); got != 99 {
		t.Fatalf("Read after directory growth = %d, want 99", got)
	}
	if len(m.overflow) != 0 {
		t.Fatalf("page not migrated out of overflow (len %d)", len(m.overflow))
	}
	m.Write(addr+8, 100)
	if m.Read(addr) != 99 || m.Read(addr+8) != 100 {
		t.Fatalf("neighbouring words corrupt after migration")
	}
}

// TestImageLoad: an image lays its regions out at the addresses the same
// AllocWords calls give a fresh Memory, Load copies every region word for
// word (here across page boundaries and into a recycled image), leaves the
// allocator past the image, and refuses a memory that has allocated.
func TestImageLoad(t *testing.T) {
	im := NewImage()
	ref := NewMemory()
	sizes := []int{5, pageWords + 3, 2*pageWords - 1}
	for i, n := range sizes {
		addr := im.AllocWords(n)
		if want := ref.AllocWords(n); addr != want {
			t.Fatalf("region %d at %#x, a fresh Memory allocates %#x", i, addr, want)
		}
		words := make([]int64, n)
		for j := range words {
			words[j] = int64(i+1)<<32 | int64(j)
			ref.Write(addr+8*uint64(j), words[j])
		}
		im.Set(addr, words)
	}
	m := NewMemory()
	m.Write(0x5000000, 7) // a page the image does not cover, zeroed by Reset
	m.Reset()
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	if m.Hash() != ref.Hash() {
		t.Fatal("loaded image differs from the same words written one by one")
	}
	if next, want := m.AllocWords(1), ref.AllocWords(1); next != want {
		t.Fatalf("after Load the allocator hands out %#x, want %#x", next, want)
	}
	if err := m.Load(im); err == nil {
		t.Fatal("Load into a memory that has allocated succeeded")
	}
}
