package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func testConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: L1Config{
			SizeBytes: 1024, // 8 lines: small, to exercise evictions
			Ways:      2,
			LineSize:  128,
			HitLat:    3,
			Banks:     4,
			MSHRs:     4,
		},
		L2: L2Config{
			SizeBytes: 8192, // 64 lines
			Ways:      4,
			LineSize:  128,
			LookupLat: 30,
			ProbeLat:  12,
			MSHRs:     16,
		},
		XbarLat:   6,
		XbarOcc:   2,
		MemBusOcc: 8,
		DRAMLat:   100,
	}
}

func newTestHier(t *testing.T, numL1 int) (*engine.Queue, *Hierarchy) {
	t.Helper()
	q := &engine.Queue{}
	return q, NewHierarchy(q, numL1, testConfig())
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1000) != 0 {
		t.Fatal("fresh memory not zero")
	}
	m.Write(0x1000, 42)
	if m.Read(0x1000) != 42 {
		t.Fatal("read after write failed")
	}
	m.WriteF(0x2000, 3.5)
	if m.ReadF(0x2000) != 3.5 {
		t.Fatal("float read after write failed")
	}
}

func TestMemoryAllocDisjoint(t *testing.T) {
	m := NewMemory()
	a := m.AllocWords(100)
	b := m.AllocWords(50)
	if a%128 != 0 || b%128 != 0 {
		t.Fatal("allocations not line aligned")
	}
	if b < a+100*8 {
		t.Fatalf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestMemoryAllocBadAlignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-power-of-two alignment")
		}
	}()
	NewMemory().Alloc(8, 24)
}

// Property: memory behaves as a map from word address to last written value.
func TestPropertyMemoryLastWriteWins(t *testing.T) {
	f := func(ops []struct {
		Addr uint16
		Val  int64
	}) bool {
		m := NewMemory()
		shadow := map[uint64]int64{}
		for _, op := range ops {
			addr := uint64(op.Addr) * 8
			m.Write(addr, op.Val)
			shadow[addr] = op.Val
		}
		for a, v := range shadow {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelLatencyAndOccupancy(t *testing.T) {
	q := &engine.Queue{}
	ch := NewChannel(q, 6, 2)
	var times []engine.Cycle
	for i := 0; i < 3; i++ {
		ch.SendEvent(engine.FuncHandler(func() { times = append(times, q.Now()) }), 0)
	}
	q.Drain()
	// First departs at 0 (+6 latency); occupancy staggers starts by 2.
	want := []engine.Cycle{6, 8, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("delivery times %v, want %v", times, want)
		}
	}
	if ch.Transfers() != 3 {
		t.Fatalf("transfers = %d, want 3", ch.Transfers())
	}
}

func TestL1HitTiming(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]

	var fillAt, hitAt engine.Cycle
	hit := c.Access(0x10000, false, func() { fillAt = q.Now() })
	if hit {
		t.Fatal("cold access reported hit")
	}
	q.Drain()
	// Miss latency: xbar(6) + L2 lookup(30) + dram bus+lat(100) — L2 miss —
	// + return xbar(6). Just check it is much larger than a hit and that
	// a subsequent access hits with the 3-cycle latency.
	if fillAt < 100 {
		t.Fatalf("miss completed implausibly fast at %d", fillAt)
	}
	start := q.Now()
	hit = c.Access(0x10000, false, func() { hitAt = q.Now() })
	if !hit {
		t.Fatal("second access missed")
	}
	q.Drain()
	if hitAt != start+3 {
		t.Fatalf("hit latency = %d, want 3", hitAt-start)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestL1Coalescing(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	done := 0
	c.Access(0x10000, false, func() { done++ })
	// Same line, different word: must coalesce, not allocate a new MSHR.
	c.Access(0x10008, false, func() { done++ })
	c.Access(0x10040, false, func() { done++ })
	if c.Stats.Misses != 1 || c.Stats.Merges != 2 {
		t.Fatalf("misses=%d merges=%d, want 1/2", c.Stats.Misses, c.Stats.Merges)
	}
	q.Drain()
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
	if h.DRAM.Accesses != 1 {
		t.Fatalf("dram accesses = %d, want 1", h.DRAM.Accesses)
	}
}

func TestWriteHitOnExclusivePromotesSilently(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	c.Access(0x10000, false, func() {})
	q.Drain()
	reqs := h.L2.Stats.Requests
	if hit := c.Access(0x10000, true, func() {}); !hit {
		t.Fatal("store to Exclusive line should hit")
	}
	q.Drain()
	if h.L2.Stats.Requests != reqs {
		t.Fatal("silent E->M promotion generated L2 traffic")
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestUpgradeOnSharedLine(t *testing.T) {
	q, h := newTestHier(t, 2)
	a, b := h.L1s[0], h.L1s[1]
	a.Access(0x10000, false, func() {})
	q.Drain()
	b.Access(0x10000, false, func() {})
	q.Drain()
	// Both now share the line; a store from A must upgrade and invalidate B.
	if hit := a.Access(0x10000, true, func() {}); hit {
		t.Fatal("store to Shared line must not be a plain hit")
	}
	q.Drain()
	if a.Stats.Upgrades == 0 {
		t.Fatal("no upgrade recorded")
	}
	if b.Stats.Invalidates != 1 {
		t.Fatalf("B invalidates = %d, want 1", b.Stats.Invalidates)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestReadAfterRemoteModify(t *testing.T) {
	q, h := newTestHier(t, 2)
	a, b := h.L1s[0], h.L1s[1]
	a.Access(0x10000, true, func() {})
	q.Drain()
	// B reads: directory must downgrade A's Modified copy.
	b.Access(0x10000, false, func() {})
	q.Drain()
	if a.Stats.Downgrades != 1 {
		t.Fatalf("A downgrades = %d, want 1", a.Stats.Downgrades)
	}
	if h.L2.Stats.ProbeDowngr != 1 {
		t.Fatalf("probe downgrades = %d, want 1", h.L2.Stats.ProbeDowngr)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestWriteAfterRemoteModify(t *testing.T) {
	q, h := newTestHier(t, 2)
	a, b := h.L1s[0], h.L1s[1]
	a.Access(0x10000, true, func() {})
	q.Drain()
	b.Access(0x10000, true, func() {})
	q.Drain()
	if a.Stats.Invalidates != 1 {
		t.Fatalf("A invalidates = %d, want 1", a.Stats.Invalidates)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	// 2-way 8-line cache, 4 sets; three lines mapping to the same set force
	// an eviction. Set stride = numSets*lineSize = 4*128.
	c.Access(0x10000, true, func() {})
	q.Drain()
	c.Access(0x10000+4*128, false, func() {})
	q.Drain()
	c.Access(0x10000+8*128, false, func() {})
	q.Drain()
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats.Evictions)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// The dirty data merged into L2: a re-read must not go to DRAM again.
	dram := h.DRAM.Accesses
	c.Access(0x10000, false, func() {})
	q.Drain()
	if h.DRAM.Accesses != dram {
		t.Fatal("re-read of written-back line went to DRAM")
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestLRUReplacement(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	setStride := uint64(4 * 128)
	lineA := uint64(0x10000)
	lineB := lineA + setStride
	lineC := lineA + 2*setStride
	c.Access(lineA, false, func() {})
	q.Drain()
	c.Access(lineB, false, func() {})
	q.Drain()
	// Touch A so B is LRU.
	c.Access(lineA, false, func() {})
	q.Drain()
	c.Access(lineC, false, func() {})
	q.Drain()
	// A should still hit; B should have been evicted.
	if hit := c.Access(lineA, false, func() {}); !hit {
		t.Fatal("LRU evicted the recently used line")
	}
	q.Drain()
	if hit := c.Access(lineB, false, func() {}); hit {
		t.Fatal("LRU kept the least recently used line")
	}
	q.Drain()
}

func TestMSHRLimitStallsAndDrains(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	done := 0
	// 4 MSHRs; issue 6 distinct-line misses.
	for i := 0; i < 6; i++ {
		c.Access(uint64(0x20000+i*128), false, func() { done++ })
	}
	if c.Stats.MSHRStalls != 2 {
		t.Fatalf("MSHR stalls = %d, want 2", c.Stats.MSHRStalls)
	}
	q.Drain()
	if done != 6 {
		t.Fatalf("done = %d, want 6 (stalled requests lost)", done)
	}
}

// TestL2LookupFIFOBounded: a long stretch in which the L2's tag pipeline
// never empties must not grow its FIFO with the stretch. Four L1s stream
// reads over 32 lines each (too many for the L1, few enough for the L2), all
// issued at once, so 10 000 requests reach the L2 back to back. The crossbar
// delivers one every XbarOcc cycles, so at most LookupLat/XbarOcc+1 are in
// the lookup at once.
func TestL2LookupFIFOBounded(t *testing.T) {
	q, h := newTestHier(t, 4)
	cfg := testConfig()
	const perL1 = 3000
	for i := 0; i < perL1; i++ {
		for id, c := range h.L1s {
			c.Access(uint64(0x10000+id*32*128+i%32*128), false, nil)
		}
	}
	q.Drain()
	if n := h.L2.Stats.Requests; n < 10000 {
		t.Fatalf("%d L2 requests, want at least 10000", n)
	}
	live := int(cfg.L2.LookupLat/cfg.XbarOcc) + 1
	if c := cap(h.L2.lookups.buf); c > 4*live {
		t.Fatalf("lookup FIFO capacity %d after the stretch; at most %d requests are ever in the lookup", c, live)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestBankConflictQueuing(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	// Warm two lines in the same bank (banks=4, so stride 4 lines), then
	// hit both in the same cycle.
	lineA := uint64(0x10000)
	lineB := lineA + 4*128*4 // same bank, different set
	c.Access(lineA, false, func() {})
	q.Drain()
	c.Access(lineB, false, func() {})
	q.Drain()
	var t1, t2 engine.Cycle
	start := q.Now()
	c.Access(lineA, false, func() { t1 = q.Now() })
	c.Access(lineB, false, func() { t2 = q.Now() })
	q.Drain()
	if t1 != start+3 {
		t.Fatalf("first hit at +%d, want +3", t1-start)
	}
	if t2 != start+4 {
		t.Fatalf("conflicting hit at +%d, want +4 (1-cycle bank queue)", t2-start)
	}
	if c.Stats.BankQueuing == 0 {
		t.Fatal("bank queuing cycles not recorded")
	}
}

func TestDifferentBanksNoConflict(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	lineA := uint64(0x10000)
	lineB := lineA + 128 // adjacent line, different bank
	c.Access(lineA, false, func() {})
	c.Access(lineB, false, func() {})
	q.Drain()
	var t1, t2 engine.Cycle
	start := q.Now()
	c.Access(lineA, false, func() { t1 = q.Now() })
	c.Access(lineB, false, func() { t2 = q.Now() })
	q.Drain()
	if t1 != start+3 || t2 != start+3 {
		t.Fatalf("parallel bank hits at +%d/+%d, want +3/+3", t1-start, t2-start)
	}
}

func TestL2InclusiveEviction(t *testing.T) {
	q := &engine.Queue{}
	cfg := testConfig()
	cfg.L2.SizeBytes = 1024 // 8 lines, 4-way: 2 sets
	h := NewHierarchy(q, 1, cfg)
	c := h.L1s[0]
	// Fill one L2 set (4 ways, set stride = 2*128) plus one more to evict.
	base := uint64(0x40000)
	for i := 0; i < 5; i++ {
		c.Access(base+uint64(i)*2*128, false, func() {})
		q.Drain()
	}
	if h.L2.Stats.Evictions == 0 {
		t.Fatal("L2 never evicted")
	}
	if h.L2.Stats.InclInvals == 0 {
		t.Fatal("inclusive eviction did not invalidate the L1 copy")
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestFullyAssociativeCache(t *testing.T) {
	q := &engine.Queue{}
	cfg := testConfig()
	cfg.L1.Ways = 0 // fully associative: 8 lines
	h := NewHierarchy(q, 1, cfg)
	c := h.L1s[0]
	// 8 lines that would all map to one set in a set-assoc cache all fit.
	for i := 0; i < 8; i++ {
		c.Access(uint64(0x10000+i*4*128), false, func() {})
		q.Drain()
	}
	if c.Stats.Evictions != 0 {
		t.Fatalf("fully associative cache evicted with %d/8 lines", c.Stats.Evictions)
	}
	for i := 0; i < 8; i++ {
		if hit := c.Access(uint64(0x10000+i*4*128), false, func() {}); !hit {
			t.Fatalf("line %d missing from fully associative cache", i)
		}
		q.Drain()
	}
}

func TestSecondaryMissDuringFillWindow(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	got := []int{}
	c.Access(0x10000, false, func() { got = append(got, 1) })
	// Advance partway into the miss, then access the same line again: must
	// merge, not hit, because the fill has not completed.
	q.RunUntil(q.Now() + 10)
	if hit := c.Access(0x10000, false, func() { got = append(got, 2) }); hit {
		t.Fatal("access during fill window reported hit")
	}
	q.Drain()
	if len(got) != 2 {
		t.Fatalf("callbacks = %v, want both", got)
	}
	if c.Stats.Merges != 1 {
		t.Fatalf("merges = %d, want 1", c.Stats.Merges)
	}
}

func TestStoreMergeIntoReadMissGainsExclusivity(t *testing.T) {
	q, h := newTestHier(t, 2)
	a, b := h.L1s[0], h.L1s[1]
	// Make the line Shared at the directory first so the read grant is S.
	b.Access(0x10000, false, func() {})
	q.Drain()
	readDone, writeDone := false, false
	a.Access(0x10000, false, func() { readDone = true })
	a.Access(0x10008, true, func() { writeDone = true }) // same line, store
	q.Drain()
	if !readDone || !writeDone {
		t.Fatalf("read=%v write=%v, want both done", readDone, writeDone)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
	// A must now have exclusivity: a further store hits silently.
	if hit := a.Access(0x10000, true, func() {}); !hit {
		t.Fatal("upgrade did not leave the line writable")
	}
	q.Drain()
}

func TestL2MergesCrossL1Misses(t *testing.T) {
	q, h := newTestHier(t, 2)
	done := 0
	h.L1s[0].Access(0x30000, false, func() { done++ })
	h.L1s[1].Access(0x30000, false, func() { done++ })
	q.Drain()
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if h.DRAM.Accesses != 1 {
		t.Fatalf("dram accesses = %d, want 1 (L2 MSHR should merge)", h.DRAM.Accesses)
	}
	if h.L2.Stats.Merges != 1 {
		t.Fatalf("L2 merges = %d, want 1", h.L2.Stats.Merges)
	}
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestMissRateStat(t *testing.T) {
	s := L1Stats{Accesses: 10, Misses: 2, Merges: 1}
	if got := s.MissRate(); got != 0.3 {
		t.Fatalf("MissRate = %g, want 0.3", got)
	}
	var zero L1Stats
	if zero.MissRate() != 0 {
		t.Fatal("MissRate on zero stats should be 0")
	}
}

// Property: after any deterministic random access pattern from multiple L1s
// drains, the MESI invariants hold and every callback fired.
func TestPropertyCoherenceInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, h := newTestHier(t, 4)
		issued, completed := 0, 0
		for step := 0; step < 400; step++ {
			c := h.L1s[rng.Intn(4)]
			addr := uint64(0x10000 + rng.Intn(64)*128)
			write := rng.Intn(3) == 0
			issued++
			c.Access(addr, write, func() { completed++ })
			if rng.Intn(4) == 0 {
				q.RunUntil(q.Now() + engine.Cycle(rng.Intn(40)))
			}
		}
		q.Drain()
		if issued != completed {
			t.Fatalf("seed %d: %d issued, %d completed", seed, issued, completed)
		}
		if msg := h.CheckCoherence(); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// Property: the same access trace always produces the same final cycle
// count (determinism underpins every experiment).
func TestPropertyDeterminism(t *testing.T) {
	run := func() engine.Cycle {
		rng := rand.New(rand.NewSource(7))
		q, h := newTestHier(t, 2)
		for step := 0; step < 200; step++ {
			c := h.L1s[rng.Intn(2)]
			addr := uint64(0x10000 + rng.Intn(32)*128)
			c.Access(addr, rng.Intn(4) == 0, func() {})
			q.RunUntil(q.Now() + engine.Cycle(rng.Intn(10)))
		}
		q.Drain()
		return q.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// deliveryLog is a completion handler that records what it was called with
// and when.
type deliveryLog struct {
	q   *engine.Queue
	got [][2]uint64 // arg, cycle
}

func (d *deliveryLog) HandleEvent(arg uint64) {
	d.got = append(d.got, [2]uint64{arg, uint64(d.q.Now())})
}

// AccessEvent is AccessReady plus the hit's ScheduleAt: over one random
// stream with bank conflicts, store upgrades, MSHR merges and MSHR-full
// waiters, the two entries give the same hit answers, completion cycles,
// delivery order and statistics.
func TestAccessReadyDifferential(t *testing.T) {
	type side struct {
		q    *engine.Queue
		h    *Hierarchy
		log  *deliveryLog
		hits []bool
	}
	newSide := func() *side {
		q, h := newTestHier(t, 2)
		return &side{q: q, h: h, log: &deliveryLog{q: q}}
	}
	event, ready := newSide(), newSide()
	rng := rand.New(rand.NewSource(25))
	for step := uint64(0); step < 4000; step++ {
		l1 := rng.Intn(2)
		// 24 lines over 4 banks: sets overflow, banks queue, lines move
		// between the two caches.
		addr := uint64(0x10000 + rng.Intn(24)*128 + rng.Intn(16)*8)
		write := rng.Intn(3) == 0
		var he, hr engine.Handler // nil: nobody waits for the data
		if rng.Intn(8) != 0 {
			he, hr = event.log, ready.log
		}
		event.hits = append(event.hits, event.h.L1s[l1].AccessEvent(addr, write, he, step))
		at, hit := ready.h.L1s[l1].AccessReady(addr, write, hr, step)
		if hit && hr != nil {
			ready.q.ScheduleAt(at, hr, step)
		}
		ready.hits = append(ready.hits, hit)
		if rng.Intn(6) == 0 { // several accesses per cycle, else bursts of misses
			until := event.q.Now() + engine.Cycle(rng.Intn(30))
			event.q.RunUntil(until)
			ready.q.RunUntil(until)
		}
	}
	event.q.Drain()
	ready.q.Drain()

	if !slices.Equal(event.hits, ready.hits) {
		t.Error("the two entries answered hit/miss differently")
	}
	if !slices.Equal(event.log.got, ready.log.got) {
		t.Errorf("deliveries differ: %d via AccessEvent, %d via AccessReady", len(event.log.got), len(ready.log.got))
	}
	var sum L1Stats
	for i := range event.h.L1s {
		a, b := event.h.L1s[i].Stats, ready.h.L1s[i].Stats
		if a != b {
			t.Errorf("L1 %d stats differ:\n AccessEvent %+v\n AccessReady %+v", i, a, b)
		}
		sum.Hits += a.Hits
		sum.BankConflicts += a.BankConflicts
		sum.Upgrades += a.Upgrades
		sum.Merges += a.Merges
		sum.MSHRStalls += a.MSHRStalls
	}
	t.Logf("paths covered: %d hits, %d bank conflicts, %d upgrades, %d MSHR merges, %d MSHR-full waits; %d deliveries", sum.Hits, sum.BankConflicts, sum.Upgrades, sum.Merges, sum.MSHRStalls, len(event.log.got))
	if sum.Hits == 0 || sum.BankConflicts == 0 || sum.Upgrades == 0 || sum.Merges == 0 || sum.MSHRStalls == 0 {
		t.Errorf("the stream does not cover every path: %+v", sum)
	}
}
