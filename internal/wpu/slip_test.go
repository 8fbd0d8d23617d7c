package wpu

// Unit tests of the adaptive-slip machinery (§5.7): the divergence cap,
// PC-revisit absorption, swap-in at stalls, scope-context rules, and
// orphan promotion.

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func slipWPU(t *testing.T) *WPU {
	t.Helper()
	w, _, _ := newBareWPU(t, SchemeSlip.Apply(Config{Warps: 1, Width: 8}))
	launchSimple(t, w, haltOnly(t), 8, nil)
	return w
}

func TestTrySlipMovesThreadsAside(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	if !w.trySlip(s, 0x0F, 0xF0) {
		t.Fatal("slip refused within cap")
	}
	if s.mask != 0x0F || s.state != WaitMem || s.pending != 0x0F {
		t.Fatalf("run-ahead state wrong: %v pending=%#x", s, uint64(s.pending))
	}
	if len(s.slipped) != 1 {
		t.Fatalf("slipped entries = %d", len(s.slipped))
	}
	e := s.slipped[0]
	if e.mask != 0xF0 || e.pc != 5 || e.pending != 0xF0 {
		t.Fatalf("slip entry wrong: %+v", e)
	}
	if w.Stats.SlipEvents != 1 {
		t.Fatal("SlipEvents not counted")
	}
}

func TestTrySlipRespectsCap(t *testing.T) {
	w := slipWPU(t)
	w.maxSlip = 3
	s := w.warps[0].splits[0]
	if w.trySlip(s, 0x0F, 0xF0) { // 4 threads > cap 3
		t.Fatal("slip exceeded the divergence cap")
	}
	if w.Stats.SlipRefused != 1 {
		t.Fatal("refusal not counted")
	}
	if w.trySlip(s, 0xF8, 0x07) { // 3 more... wait: 3 <= 3 OK
	} else {
		t.Fatal("slip refused within cap")
	}
	// A second slip of 1 more thread would exceed the cap (3+1 > 3).
	s.state = Ready
	if w.trySlip(s, 0xF0, 0x08) {
		t.Fatal("cumulative slip exceeded the cap")
	}
}

func TestTrySlipRequiresBaseStack(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.stack = append(s.stack, StackEntry{ReconvPC: 9, PC: 1, Mask: 0xFF})
	if w.trySlip(s, 0x0F, 0xF0) {
		t.Fatal("slip allowed inside a serialised branch arm")
	}
}

func TestSlipAbsorbOnPCRevisit(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	w.trySlip(s, 0x0F, 0xF0)
	s.state = Ready
	s.pending = 0
	s.slipped[0].pending = 0 // data arrived
	s.pc = 7
	w.slipAbsorb(s) // wrong PC: nothing happens
	if len(s.slipped) != 1 {
		t.Fatal("absorbed at the wrong PC")
	}
	s.pc = 5
	w.slipAbsorb(s)
	if len(s.slipped) != 0 || s.mask != 0xFF {
		t.Fatalf("revisit absorption failed: mask=%#x entries=%d", uint64(s.mask), len(s.slipped))
	}
	if w.Stats.SlipMerges != 1 {
		t.Fatal("merge not counted")
	}
}

func TestSlipAbsorbRequiresArrivedData(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	w.trySlip(s, 0x0F, 0xF0)
	s.state = Ready
	w.slipAbsorb(s) // pending data: must not merge
	if len(s.slipped) != 1 {
		t.Fatal("absorbed a group whose data is still outstanding")
	}
}

func TestSlipSwapInParksRunAhead(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	w.trySlip(s, 0x0F, 0xF0)
	s.state = Ready
	s.pending = 0
	s.pc = 20 // run-ahead progressed to a stall point
	s.slipped[0].pending = 0
	if !w.slipSwapIn(s) {
		t.Fatal("swap-in failed with a runnable group")
	}
	if s.mask != 0xF0 || s.pc != 5 {
		t.Fatalf("fall-behind not activated: %v", s)
	}
	if len(s.parked) != 1 || s.parked[0].pc != 20 || s.parked[0].mask != 0x0F {
		t.Fatalf("run-ahead not parked: %+v", s.parked)
	}
	// Catching up to the parked PC re-unites.
	s.pc = 20
	w.slipAbsorb(s)
	if s.mask != 0xFF || len(s.parked) != 0 {
		t.Fatalf("parked re-union failed: %v", s)
	}
}

func TestSlipSwapInFailsWhenDataPending(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	w.trySlip(s, 0x0F, 0xF0)
	s.state = Ready
	s.pending = 0
	if w.slipSwapIn(s) {
		t.Fatal("swapped in a group whose data is outstanding")
	}
}

func TestPromoteAllSlipCreatesSplits(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	w.trySlip(s, 0x0F, 0xF0)
	s.parked = append(s.parked, parkedEntry{mask: 0x0F, pc: 9})
	s.mask = 0 // pretend the active portion is gone
	before := w.splitCount
	w.promoteAllSlip(s)
	if len(s.slipped) != 0 || len(s.parked) != 0 {
		t.Fatal("promotion left entries behind")
	}
	if w.splitCount != before+2 {
		t.Fatalf("splitCount = %d, want +2", w.splitCount)
	}
	// The promoted fall-behind is WaitMem with its pending set; the parked
	// group is Ready.
	var waiters, ready int
	for _, o := range w.warps[0].splits {
		switch o.state {
		case WaitMem:
			waiters++
		case Ready:
			ready++
		}
	}
	if waiters == 0 || ready == 0 {
		t.Fatalf("promoted states wrong: %d waiters, %d ready", waiters, ready)
	}
}

// TestSlipEntryForwardsAfterPromotion: a line completion the fall-behind
// group was waiting for when it was promoted reaches the promoted split.
func TestSlipEntryForwardsAfterPromotion(t *testing.T) {
	w := slipWPU(t)
	s := w.warps[0].splits[0]
	s.pc = 5
	hit, miss := pendingAccess(w, 0x0F, 0xF0)
	w.trySlip(s, 0x0F, 0xF0)
	e := s.slipped[0]
	w.promoteAllSlip(s)
	var ns *Split
	for _, o := range w.warps[0].splits {
		if o != s {
			ns = o
		}
	}
	if ns == nil || ns.pending != 0xF0 || ns.state != WaitMem {
		t.Fatalf("promoted split = %v", ns)
	}
	if w.tokens[miss].owner != ns || w.tokens[hit].owner != s {
		t.Fatalf("token owners after promotion: miss %v, hit %v", w.tokens[miss].owner, w.tokens[hit].owner)
	}
	w.HandleEvent(uint64(miss))
	if !ns.pending.Empty() || ns.state != Ready {
		t.Fatalf("completion lost: %v pending=%#x", ns, uint64(ns.pending))
	}
	if e.pending != 0xF0 {
		t.Fatalf("the retired group heard the completion: pending=%#x", uint64(e.pending))
	}
}

func TestAdaptSlipAdjustsCap(t *testing.T) {
	w, _, _ := newBareWPU(t, SchemeSlip.Apply(Config{Warps: 1, Width: 8}))
	launchSimple(t, w, haltOnly(t), 8, nil)
	start := w.maxSlip
	// Memory-bound interval: raise.
	w.Stats.TickCycles = slipInterval
	w.intervalBusy = slipInterval / 10
	w.intervalWait = slipInterval * 9 / 10
	w.adaptSlip()
	if w.maxSlip != start+1 {
		t.Fatalf("cap = %d after memory-bound interval, want %d", w.maxSlip, start+1)
	}
	// Busy interval: lower.
	w.Stats.TickCycles = 3 * slipInterval
	w.intervalBusy = slipInterval * 3 / 2
	w.intervalWait = slipInterval / 20
	w.adaptSlip()
	if w.maxSlip != start {
		t.Fatalf("cap = %d after busy interval, want %d", w.maxSlip, start)
	}
}

func TestSlipEndToEndLoopKernel(t *testing.T) {
	// A strided-gather loop under plain Slip: fall-behind groups must
	// re-unite via PC revisits and the kernel must produce exact results.
	b := program.NewBuilder("sliploop")
	b.Mov(8, 1)
	b.Movi(12, 0)
	b.Label("loop")
	b.Slti(9, 12, 8)
	b.Beqz(9, "done")
	b.Muli(10, 8, 937)
	b.Andi(10, 10, 1023)
	b.Shli(10, 10, 3)
	b.Add(10, 10, 4)
	b.Ld(11, 10, 0)
	b.Add(13, 13, 11)
	b.Addi(8, 8, 3)
	b.Addi(12, 12, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Shli(14, 1, 3)
	b.Add(14, 14, 5)
	b.St(13, 14, 0)
	b.Halt()
	p := b.MustBuild()

	w, q, h := newBareWPU(t, SchemeSlip.Apply(Config{Warps: 2, Width: 8}))
	table := h.Mem.AllocWords(1024)
	out := h.Mem.AllocWords(16)
	for i := 0; i < 1024; i++ {
		h.Mem.Write(table+uint64(i)*8, int64(i*3+1))
	}
	launchSimple(t, w, p, 16, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(table))
		r.Set(5, int64(out))
	})
	runToCompletion(t, w, q)
	for tid := 0; tid < 16; tid++ {
		var want int64
		idx := tid
		for k := 0; k < 8; k++ {
			j := (idx * 937) & 1023
			want += int64(j*3 + 1)
			idx += 3
		}
		if got := h.Mem.Read(out + uint64(tid)*8); got != want {
			t.Fatalf("thread %d: sum = %d, want %d", tid, got, want)
		}
	}
}
