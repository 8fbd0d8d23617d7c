package mem

// Benchmarks for the two map-free memory fast paths introduced with the
// execution-core rewrite: the tiered functional-memory page lookup
// (last-page cache → flat directory → overflow map) and the MSHR
// open-addressing table. TestMemFastPathsAllocFree holds both at zero
// allocations: the steady state must stay allocation-free.

import "testing"

// funcMemRW is a Memory with an eight-page allocated region, every page
// touched up front so page instantiation is out of the timed loop.
type funcMemRW struct {
	m    *Memory
	base uint64
}

const funcMemRWWords = 8 * pageWords

func newFuncMemRW() funcMemRW {
	m := NewMemory()
	base := m.AllocWords(funcMemRWWords)
	for i := uint64(0); i < funcMemRWWords; i++ {
		m.Write(base+8*i, int64(i))
	}
	return funcMemRW{m, base}
}

// op i writes and reads back one word. The large co-prime stride makes
// consecutive ops land on different pages, so this measures the directory
// path and not just the one-entry last-page cache, while staying inside the
// bump-allocated range (the overflow map must never be touched).
func (f funcMemRW) op(i int) int64 {
	addr := f.base + 8*((uint64(i)*(pageWords+1))%funcMemRWWords)
	f.m.Write(addr, int64(i))
	return f.m.Read(addr)
}

// mshrCycle is the open-addressing MSHR table's full fast-path cycle for
// key i: a miss probe on an empty table, an insert, a hit probe, and a
// backward-shift delete — the sequence every cache miss pays.
func mshrCycle(tb testing.TB, t *mshrTable[int], i int) {
	key := uint64(i) * 128
	if _, ok := t.get(key); ok {
		tb.Fatal("phantom entry")
	}
	t.put(key, i)
	if _, ok := t.get(key); !ok {
		tb.Fatal("inserted entry not found")
	}
	t.del(key)
}

// BenchmarkFuncMemReadWrite streams funcMemRW's write+read pairs.
func BenchmarkFuncMemReadWrite(b *testing.B) {
	f := newFuncMemRW()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += f.op(i)
	}
	benchSink = sink
}

// BenchmarkMSHRLookup times mshrCycle.
func BenchmarkMSHRLookup(b *testing.B) {
	t := newMSHRTable[int](32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mshrCycle(b, &t, i)
	}
}

// TestMemFastPathsAllocFree pins BenchmarkFuncMemReadWrite and
// BenchmarkMSHRLookup at zero allocations per op.
func TestMemFastPathsAllocFree(t *testing.T) {
	f := newFuncMemRW()
	i := 0
	if allocs := testing.AllocsPerRun(10000, func() { benchSink += f.op(i); i++ }); allocs != 0 {
		t.Errorf("functional-memory write+read allocated %.2f times per op, want 0", allocs)
	}
	tab := newMSHRTable[int](32)
	if allocs := testing.AllocsPerRun(10000, func() { mshrCycle(t, &tab, i); i++ }); allocs != 0 {
		t.Errorf("MSHR get/put/get/del allocated %.2f times per cycle, want 0", allocs)
	}
}

// benchSink defeats dead-code elimination of benchmark loop bodies.
var benchSink int64
