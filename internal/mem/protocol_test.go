package mem

// Additional protocol and component tests beyond mem_test.go: DRAM
// accounting, probe-penalty timing, victim selection, put/eviction races,
// and channel properties.

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func TestDRAMWritebackAccounting(t *testing.T) {
	q := &engine.Queue{}
	bus := NewChannel(q, 0, 8)
	d := NewDRAM(q, bus, 100)
	fired := false
	d.Fetch(func() { fired = true })
	d.Writeback()
	q.Drain()
	if !fired {
		t.Fatal("fetch completion lost")
	}
	if d.Accesses != 2 || d.WritebackN != 1 {
		t.Fatalf("accesses=%d writebacks=%d", d.Accesses, d.WritebackN)
	}
}

func TestDRAMFetchLatency(t *testing.T) {
	q := &engine.Queue{}
	bus := NewChannel(q, 0, 8)
	d := NewDRAM(q, bus, 100)
	var at engine.Cycle
	d.Fetch(func() { at = q.Now() })
	q.Drain()
	if at != 100 {
		t.Fatalf("fetch completed at %d, want 100 (bus 0-latency + device 100)", at)
	}
}

func TestProbePenaltyDelaysRequester(t *testing.T) {
	// B reads a line that A holds Modified: the reply must arrive later
	// than a clean L2 hit by at least the probe penalty.
	q, h := newTestHier(t, 2)
	a, b := h.L1s[0], h.L1s[1]

	// Warm a clean line for the baseline timing.
	b.Access(0x50000, false, func() {})
	q.Drain()
	b.invalidateLine(0x50000)
	start := q.Now()
	var cleanAt engine.Cycle
	b.Access(0x50000, false, func() { cleanAt = q.Now() - start })
	q.Drain()

	// A dirties a different line; B's read needs a downgrade probe.
	a.Access(0x60000, true, func() {})
	q.Drain()
	start = q.Now()
	var probedAt engine.Cycle
	b.Access(0x60000, false, func() { probedAt = q.Now() - start })
	q.Drain()

	if probedAt < cleanAt+12 {
		t.Fatalf("probed fill took %d, clean fill %d: probe penalty missing", probedAt, cleanAt)
	}
}

func TestVictimPrefersInvalidFrames(t *testing.T) {
	s := newStore(512, 2, 128) // 4 lines, 2 ways, 2 sets
	w1 := s.victim(0)
	s.fill(w1, 0)
	s.touch(w1)
	v := s.victim(2 * 128 * 2) // same set (stride = numSets*lineSize = 256)
	if s.valid(v) {
		t.Fatal("victim chose a valid frame while an invalid one existed")
	}
}

func TestVictimLRUAmongValid(t *testing.T) {
	s := newStore(512, 2, 128)
	a := s.victim(0)
	s.fill(a, 0)
	s.touch(a)
	b := s.victim(256)
	s.fill(b, 256)
	s.touch(b)
	s.touch(a) // b is now LRU
	if v := s.victim(512); v != b {
		t.Fatal("LRU victim wrong")
	}
}

func TestStoreRejectsBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { newStore(1024, 4, 100) }, // non-power-of-two line
		func() { newStore(64, 4, 128) },   // smaller than one line
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry accepted")
				}
			}()
			fn()
		}()
	}
}

func TestPutAfterL2EvictionIsIgnored(t *testing.T) {
	// An L1 eviction racing an L2 eviction of the same line must not panic
	// or corrupt state: put on an absent line is a no-op.
	q, h := newTestHier(t, 1)
	h.L2.put(0, 0x123400, true)
	q.Drain()
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestCoherenceStateString(t *testing.T) {
	cases := map[Coherence]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Coherence(9): "?"}
	for c, want := range cases {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestExclusiveGrantOnUnsharedRead(t *testing.T) {
	q, h := newTestHier(t, 2)
	a := h.L1s[0]
	a.Access(0x70000, false, func() {})
	q.Drain()
	// A store must now hit silently: the read was granted Exclusive.
	reqs := h.L2.Stats.Requests
	if hit := a.Access(0x70000, true, func() {}); !hit {
		t.Fatal("store after exclusive read grant missed")
	}
	q.Drain()
	if h.L2.Stats.Requests != reqs {
		t.Fatal("silent upgrade generated traffic")
	}
}

func TestSharedGrantOnContendedRead(t *testing.T) {
	q, h := newTestHier(t, 2)
	h.L1s[0].Access(0x70000, false, func() {})
	q.Drain()
	h.L1s[1].Access(0x70000, false, func() {})
	q.Drain()
	// Now a store from either must go through an upgrade.
	if hit := h.L1s[1].Access(0x70000, true, func() {}); hit {
		t.Fatal("store to a Shared grant hit silently")
	}
	q.Drain()
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}

func TestBankQueueDrainsOverTime(t *testing.T) {
	q, h := newTestHier(t, 1)
	c := h.L1s[0]
	// Warm two same-bank lines.
	lineA := uint64(0x10000)
	lineB := lineA + 4*128*4
	c.Access(lineA, false, func() {})
	c.Access(lineB, false, func() {})
	q.Drain()
	// Access them in different cycles: no queuing delay.
	base := c.Stats.BankQueuing
	c.Access(lineA, false, func() {})
	q.RunUntil(q.Now() + 2)
	c.Access(lineB, false, func() {})
	q.Drain()
	if c.Stats.BankQueuing != base {
		t.Fatalf("bank queuing charged %d cycles across separated accesses", c.Stats.BankQueuing-base)
	}
}

// Property: the channel preserves FIFO order and never delivers early.
func TestPropertyChannelFIFO(t *testing.T) {
	f := func(lat, occ uint8, n uint8) bool {
		q := &engine.Queue{}
		ch := NewChannel(q, engine.Cycle(lat), engine.Cycle(occ%8))
		count := int(n%20) + 1
		var order []int
		var times []engine.Cycle
		for i := 0; i < count; i++ {
			i := i
			ch.SendEvent(engine.FuncHandler(func() {
				order = append(order, i)
				times = append(times, q.Now())
			}), 0)
		}
		q.Drain()
		for i := range order {
			if order[i] != i {
				return false
			}
			if times[i] < engine.Cycle(lat) {
				return false
			}
			if i > 0 && times[i] < times[i-1] {
				return false
			}
		}
		return len(order) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CheckCoherence holds after any prefix of a random trace, not
// just at quiescence (sampled at random points with the queue drained).
func TestPropertyCoherenceAtCheckpoints(t *testing.T) {
	q, h := newTestHier(t, 3)
	seed := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(mod))
	}
	for step := 0; step < 300; step++ {
		c := h.L1s[next(3)]
		addr := uint64(0x10000 + next(48)*128)
		c.Access(addr, next(4) == 0, func() {})
		if next(5) == 0 {
			q.Drain()
			if msg := h.CheckCoherence(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
		}
	}
	q.Drain()
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatal(msg)
	}
}
