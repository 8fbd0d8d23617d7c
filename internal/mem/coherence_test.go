package mem

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// falseSharingStep drives one access of the high-false-sharing stress
// pattern: every L1 hammers word-granularity offsets inside the same small
// set of cache lines, so lines ping-pong between owners and the directory
// constantly probes, downgrades, and invalidates. state is a deterministic
// LCG so the pattern is reproducible byte-for-byte.
func falseSharingStep(h *Hierarchy, state *uint64, lines int) {
	next := func(n int) int {
		*state = *state*6364136223846793005 + 1442695040888963407
		return int((*state >> 33) % uint64(n))
	}
	c := h.L1s[next(len(h.L1s))]
	// Same lines from every L1, different words per access: false sharing.
	line := uint64(0x40000 + next(lines)*128)
	addr := line + uint64(next(16))*8
	write := next(2) == 0
	c.Access(addr, write, func() {})
}

// checkpointedRun interleaves the stress pattern with partial event
// delivery, validating the MESI invariants at every interval — not only
// after the traffic drains — so a violation that a later transaction would
// repair is still caught in the window where it existed. The machine is
// testConfig's with numL1 L1s and l2MSHRs L2 MSHRs.
func checkpointedRun(t *testing.T, seed uint64, steps, lines, interval, numL1, l2MSHRs int) {
	t.Helper()
	cfg := testConfig()
	cfg.L2.MSHRs = l2MSHRs
	q := &engine.Queue{}
	h := NewHierarchy(q, numL1, cfg)
	state := seed
	for step := 1; step <= steps; step++ {
		falseSharingStep(h, &state, lines)
		if step%interval == 0 {
			q.RunUntil(q.Now() + 60)
			if msg := h.CheckCoherence(); msg != "" {
				t.Fatalf("seed %d, step %d (cycle %d): %s", seed, step, q.Now(), msg)
			}
		}
	}
	q.Drain()
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatalf("seed %d, after drain: %s", seed, msg)
	}
}

// TestCoherenceUnderFalseSharingStress checks the full MESI invariant set
// (single writer, directory precision, inclusion, no stale dirty data)
// every interval of a high-false-sharing workload: all four L1s write
// disjoint words of the same few lines, maximising ownership migration.
func TestCoherenceUnderFalseSharingStress(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		checkpointedRun(t, seed, 600, 8, 16, 4, 16)
	}
}

// TestCoherenceStressEvictionPressure runs the same pattern over more lines
// than the 16-line test L1 holds, adding capacity evictions (and their
// writebacks and directory puts) to the protocol traffic mix.
func TestCoherenceStressEvictionPressure(t *testing.T) {
	for seed := uint64(100); seed < 106; seed++ {
		checkpointedRun(t, seed, 600, 48, 16, 4, 16)
	}
}

// FuzzCoherence lets the fuzzer explore seeds of the stress pattern, the
// number of L1s (1–70, so the directory's sharer sets may pass 64 bits)
// and the L2's MSHR budget (1–32, so the L1s' 4 misses each can find every
// L2 MSHR busy); the property is interval-checked coherence, as above. The
// seed corpus covers the deterministic regression seeds at 4 L1s and 16
// MSHRs; testdata/fuzz holds inputs that found violations.
func FuzzCoherence(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(15))
	f.Add(uint64(7), uint8(3), uint8(15))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, l1s, l2MSHRs uint8) {
		checkpointedRun(t, seed, 300, 8, 16, 1+int(l1s)%70, 1+int(l2MSHRs)%32)
	})
}

// TestStaleDataInvariantDetects plants the stale-data corruption directly
// (a dirty line demoted to Shared without a writeback) and requires the
// checker to flag it — guarding the guard.
func TestStaleDataInvariantDetects(t *testing.T) {
	q, h := newTestHier(t, 2)
	h.L1s[0].Access(0x40000, true, nil)
	q.Drain()
	st := h.L1s[0].store
	i := st.lookup(h.L1s[0].Line(0x40000))
	if i < 0 || st.state(i) != Modified || !st.dirty(i) {
		t.Fatalf("setup: expected a dirty Modified line, got frame %d", i)
	}
	st.setState(i, Shared) // corrupt: dirty data outside M
	if msg := h.CheckCoherence(); msg == "" {
		t.Fatal("checker missed dirty data in Shared state")
	}
}

// TestStaleSharerDetects plants a sharer bit for an L1 that neither holds
// the line nor fetches it, in an otherwise coherent hierarchy, and requires
// the checker to flag it: the directory must not name a cache that would
// never answer its probe.
func TestStaleSharerDetects(t *testing.T) {
	q, h := newTestHier(t, 2)
	h.L1s[0].Access(0x40000, false, nil)
	h.L1s[1].Access(0x40000, false, nil)
	q.Drain()
	h.L1s[1].Access(0x48000, false, nil)
	q.Drain()
	if msg := h.CheckCoherence(); msg != "" {
		t.Fatalf("setup: %s", msg)
	}
	i := h.L2.st.lookup(h.L1s[0].Line(0x48000))
	if i < 0 || h.L2.shared(i) {
		t.Fatalf("setup: line 0x48000 at L2 frame %d, shared=%v", i, i >= 0 && h.L2.shared(i))
	}
	h.L2.addSharer(i, 0) // corrupt: L1 0 never read 0x48000
	if msg := h.CheckCoherence(); !strings.Contains(msg, "sharer L1 0 of 0x48000") {
		t.Fatalf("checker missed the stale sharer bit: %q", msg)
	}
}
