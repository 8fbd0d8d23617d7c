package wpu

// White-box tests of the split machinery: slot bookkeeping, re-convergence
// stack pops, sync-scope lifecycle, PC/wait merges and the WST bound. These
// drive a real WPU over a tiny memory hierarchy and inspect package-private
// state directly.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

func newBareWPU(t testing.TB, cfg Config) (*WPU, *engine.Queue, *mem.Hierarchy) {
	t.Helper()
	q := &engine.Queue{}
	h := mem.NewHierarchy(q, 1, mem.HierarchyConfig{
		L1:      mem.L1Config{SizeBytes: 2048, Ways: 2, LineSize: 128, HitLat: 3, Banks: 4, MSHRs: 8},
		L2:      mem.L2Config{SizeBytes: 64 * 1024, Ways: 8, LineSize: 128, LookupLat: 10, ProbeLat: 4, MSHRs: 16},
		XbarLat: 2, XbarOcc: 1, MemBusOcc: 4, DRAMLat: 50,
	})
	w, err := New(0, q, cfg, h.L1s[0], h.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, q, h
}

// runToCompletion ticks the WPU (interleaving events) until done,
// releasing barriers when everything parks.
func runToCompletion(t *testing.T, w *WPU, q *engine.Queue) uint64 {
	t.Helper()
	var cycle engine.Cycle
	for i := 0; !w.Done(); i++ {
		if i > 5_000_000 {
			t.Fatalf("WPU did not finish:\n%s", w.DebugDump())
		}
		q.RunUntil(cycle)
		progress := w.Tick()
		if w.AnyAtBarrier() && w.BarrierReady() {
			w.ReleaseBarrier()
		} else if q.Len() == 0 && !progress && !w.Done() {
			t.Fatalf("deadlock at cycle %d:\n%s", cycle, w.DebugDump())
		}
		cycle++
	}
	return uint64(cycle)
}

func launchSimple(t *testing.T, w *WPU, p *program.Program, n int, setup func(tid int, r *isa.RegFile)) {
	t.Helper()
	regs := make([]isa.RegFile, n)
	for i := range regs {
		regs[i].Set(1, int64(i))
		regs[i].Set(2, int64(n))
		if setup != nil {
			setup(i, &regs[i])
		}
	}
	if err := w.Launch(p, regs); err != nil {
		t.Fatal(err)
	}
}

func haltOnly(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("halt")
	b.Halt()
	return b.MustBuild()
}

func TestLaunchCreatesRootSplits(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 2, Width: 4})
	launchSimple(t, w, haltOnly(t), 6, nil) // warp0 full, warp1 half
	if w.splitCount != 2 {
		t.Fatalf("splitCount = %d, want 2", w.splitCount)
	}
	if w.warps[0].live != 0xF {
		t.Fatalf("warp0 live = %#x", uint64(w.warps[0].live))
	}
	if w.warps[1].live != 0x3 {
		t.Fatalf("warp1 live = %#x", uint64(w.warps[1].live))
	}
	for _, warp := range w.warps {
		for _, s := range warp.splits {
			if !s.resident || s.state != Ready || !s.baseStack() {
				t.Fatalf("root split malformed: %v", s)
			}
		}
	}
}

func TestLaunchRejectsWhileRunning(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	b := program.NewBuilder("spin")
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	launchSimple(t, w, p, 4, nil)
	if err := w.Launch(p, make([]isa.RegFile, 4)); err == nil {
		t.Fatal("relaunch while running accepted")
	}
}

func TestSlotBookkeeping(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 2, Width: 4, SchedSlots: 1})
	launchSimple(t, w, haltOnly(t), 8, nil)
	// One slot: warp0 resident, warp1 queued.
	if !w.warps[0].splits[0].resident {
		t.Fatal("first split not resident")
	}
	s1 := w.warps[1].splits[0]
	if s1.resident {
		t.Fatal("second split resident despite single slot")
	}
	if len(w.slotWait) != 1 {
		t.Fatalf("slotWait = %d, want 1", len(w.slotWait))
	}
	// Removing the resident split must admit the waiter.
	w.removeSplit(w.warps[0].splits[0])
	if !s1.resident {
		t.Fatal("waiter not admitted after slot freed")
	}
	if w.slots[0] != s1 {
		t.Fatal("slot does not hold the admitted split")
	}
}

func TestAdmitWaiterSkipsDead(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 3, Width: 4, SchedSlots: 1})
	launchSimple(t, w, haltOnly(t), 12, nil)
	dead := w.warps[1].splits[0]
	alive := w.warps[2].splits[0]
	// Kill the first waiter while it is still queued.
	w.removeSplit(dead)
	w.removeSplit(w.warps[0].splits[0])
	if !alive.resident {
		t.Fatal("live waiter skipped")
	}
}

func TestWSTRoomCountsAndRefuses(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 2, Width: 4, WSTEntries: 2})
	launchSimple(t, w, haltOnly(t), 8, nil)
	if w.wstRoom() {
		t.Fatal("WST reported room at capacity")
	}
	if w.Stats.WSTFullRefusals != 1 {
		t.Fatalf("refusals = %d, want 1", w.Stats.WSTFullRefusals)
	}
	w.removeSplit(w.warps[0].splits[0])
	if !w.wstRoom() {
		t.Fatal("WST full after a removal")
	}
}

// postPCUpdate must pop serialised branch paths at their re-convergence PC
// and switch to the sibling path.
func TestPostPCUpdatePopsStack(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	launchSimple(t, w, haltOnly(t), 4, nil)
	s := w.warps[0].splits[0]
	// Manufacture a serialised divergence: taken at pc 5, sibling at pc 9,
	// re-converging at pc 12.
	s.tos().PC = 12
	s.stack = append(s.stack,
		StackEntry{ReconvPC: 12, PC: 9, Mask: 0x3},
		StackEntry{ReconvPC: 12, PC: 5, Mask: 0xC},
	)
	s.pc = 5
	s.mask = 0xC
	// Taken path reaches the post-dominator.
	s.pc = 12
	w.postPCUpdate(s)
	if s.pc != 9 || s.mask != 0x3 {
		t.Fatalf("after pop: pc=%d mask=%#x, want sibling 9/0x3", s.pc, uint64(s.mask))
	}
	// Sibling reaches it too: resume the parent mask at the join.
	s.pc = 12
	w.postPCUpdate(s)
	if s.pc != 12 || s.mask != 0xF || !s.baseStack() {
		t.Fatalf("after second pop: pc=%d mask=%#x depth=%d", s.pc, uint64(s.mask), len(s.stack))
	}
}

func TestPostPCUpdateRetiresEmptyMask(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	launchSimple(t, w, haltOnly(t), 4, nil)
	s := w.warps[0].splits[0]
	w.warpHalt(s.warp, 0xF)
	w.postPCUpdate(s)
	if s.state != Dead || w.splitCount != 0 {
		t.Fatalf("empty-mask split not retired: %v, count %d", s, w.splitCount)
	}
}

func TestScopeArrivalAndCompletion(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	launchSimple(t, w, haltOnly(t), 4, nil)
	root := w.warps[0].splits[0]
	sc := &SyncScope{warp: root.warp, reconvPC: 7, expected: 0xF,
		frozen: []StackEntry{{ReconvPC: program.NoIPdom, PC: 0, Mask: 0xF}}}
	a := w.newSplit(root.warp, 0x3, 7, sc)
	b := w.newSplit(root.warp, 0xC, 7, sc)
	w.removeSplit(root)
	w.addSplit(a)
	w.addSplit(b)

	w.arriveAtScope(a)
	if sc.arrived != 0x3 {
		t.Fatalf("arrived = %#x", uint64(sc.arrived))
	}
	if w.splitCount != 1 {
		t.Fatalf("splitCount = %d after first arrival", w.splitCount)
	}
	w.arriveAtScope(b)
	// Scope complete: a merged split with the full mask exists at pc 7.
	if w.splitCount != 1 {
		t.Fatalf("splitCount = %d after completion", w.splitCount)
	}
	merged := w.warps[0].splits[0]
	if merged.mask != 0xF || merged.pc != 7 || merged.state != Ready {
		t.Fatalf("merged split wrong: %v", merged)
	}
	if w.Stats.ScopeMerges != 1 {
		t.Fatalf("ScopeMerges = %d", w.Stats.ScopeMerges)
	}
}

func TestScopeCompletionExcludesHalted(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	launchSimple(t, w, haltOnly(t), 4, nil)
	root := w.warps[0].splits[0]
	sc := &SyncScope{warp: root.warp, reconvPC: 7, expected: 0xF,
		frozen: []StackEntry{{ReconvPC: program.NoIPdom, PC: 0, Mask: 0xF}}}
	a := w.newSplit(root.warp, 0x3, 7, sc)
	b := w.newSplit(root.warp, 0xC, 3, sc)
	w.removeSplit(root)
	w.addSplit(a)
	w.addSplit(b)
	w.arriveAtScope(a)
	// b's threads halt before reaching the scope.
	w.warpHalt(b.warp, 0xC)
	b.mask = 0
	w.postPCUpdate(b) // retires b, subtracts from the scope
	if w.splitCount != 1 {
		t.Fatalf("splitCount = %d, want merged survivor only", w.splitCount)
	}
	merged := w.warps[0].splits[0]
	if merged.mask != 0x3 {
		t.Fatalf("merged mask = %#x, want surviving threads 0x3", uint64(merged.mask))
	}
}

func TestSyncPCInheritance(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	launchSimple(t, w, haltOnly(t), 4, nil)
	s := w.warps[0].splits[0]
	if s.syncPC() != program.NoIPdom {
		t.Fatalf("root syncPC = %d", s.syncPC())
	}
	s.stack = append(s.stack, StackEntry{ReconvPC: 42, PC: 1, Mask: 0xF})
	if s.syncPC() != 42 {
		t.Fatalf("stacked syncPC = %d, want 42", s.syncPC())
	}
	s.stack = s.stack[:1]
	s.scope = &SyncScope{reconvPC: 17}
	if s.syncPC() != 17 {
		t.Fatalf("scoped syncPC = %d, want inherited 17", s.syncPC())
	}
}

func TestTryPCMergeRequiresSameContext(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4, PCReconv: true})
	launchSimple(t, w, haltOnly(t), 4, nil)
	root := w.warps[0].splits[0]
	w.removeSplit(root)
	scA := &SyncScope{warp: root.warp, reconvPC: 9}
	a := w.newSplit(root.warp, 0x3, 5, scA)
	b := w.newSplit(root.warp, 0xC, 5, nil) // different scope: no merge
	w.addSplit(a)
	w.addSplit(b)
	w.tryPCMerge(a)
	if w.splitCount != 2 {
		t.Fatal("merged across different scopes")
	}
	b.scope = scA
	w.tryPCMerge(a)
	if w.splitCount != 1 || a.mask != 0xF {
		t.Fatalf("same-scope merge failed: count=%d mask=%#x", w.splitCount, uint64(a.mask))
	}
	if w.Stats.PCMerges != 1 {
		t.Fatalf("PCMerges = %d", w.Stats.PCMerges)
	}
}

// End-to-end: a kernel whose threads halt inside divergent arms must still
// terminate, exercising the halt-driven stack pops.
func TestHaltInsideDivergentArm(t *testing.T) {
	b := program.NewBuilder("halt-in-arm")
	b.Andi(9, 1, 1)
	b.Bnez(9, "odd")
	b.Movi(10, 1)
	b.Halt() // even threads die inside the arm
	b.Label("odd")
	b.Movi(10, 2)
	b.Halt()
	p := b.MustBuild()

	for _, scheme := range []Scheme{SchemeConv, SchemeBranchOnly, SchemeRevive} {
		cfg := scheme.Apply(Config{Warps: 2, Width: 4})
		w, q, _ := newBareWPU(t, cfg)
		launchSimple(t, w, p, 8, nil)
		runToCompletion(t, w, q)
	}
}

// End-to-end: nested divergence with halts on every path.
func TestNestedDivergenceWithMixedHalts(t *testing.T) {
	b := program.NewBuilder("nested-halts")
	b.Andi(9, 1, 1)
	b.Bnez(9, "outer")
	b.Andi(10, 1, 2)
	b.Bnez(10, "innerB")
	b.Movi(11, 1)
	b.Jmp("join")
	b.Label("innerB")
	b.Movi(11, 2)
	b.Label("join")
	b.Addi(11, 11, 10)
	b.Halt()
	b.Label("outer")
	b.Movi(11, 3)
	b.Halt()
	p := b.MustBuild()

	for _, scheme := range AllSchemes {
		cfg := scheme.Apply(Config{Warps: 2, Width: 8})
		w, q, _ := newBareWPU(t, cfg)
		launchSimple(t, w, p, 16, nil)
		runToCompletion(t, w, q)
		for lane := 0; lane < 8; lane++ {
			for wi := 0; wi < 2; wi++ {
				tid := wi*8 + lane
				got := w.warps[wi].regs.Get(lane, 11)
				want := int64(11) // inner A path
				switch {
				case tid&1 == 1:
					want = 3
				case tid&2 == 2:
					want = 12
				}
				if got != want {
					t.Fatalf("%s: thread %d r11 = %d, want %d", scheme, tid, got, want)
				}
			}
		}
	}
}

// The WST bound must hold at every instant, whatever the policy mix.
func TestWSTBoundNeverExceeded(t *testing.T) {
	b := program.NewBuilder("churn")
	b.Mov(8, 1)
	b.Movi(12, 0)
	b.Label("loop")
	b.Slti(9, 12, 6)
	b.Beqz(9, "done")
	b.Andi(10, 8, 3)
	b.Muli(11, 8, 128)
	b.Andi(11, 11, 4095)
	b.Add(13, 4, 11)
	b.Ld(14, 13, 0) // scattered loads: memory divergence
	b.Bnez(10, "skip")
	b.Addi(14, 14, 1)
	b.Label("skip")
	b.Muli(8, 8, 7)
	b.Addi(8, 8, 3)
	b.Addi(12, 12, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	p := b.MustBuild()

	cfg := SchemeAggress.Apply(Config{Warps: 4, Width: 8, WSTEntries: 6})
	w, q, _ := newBareWPU(t, cfg)
	launchSimple(t, w, p, 32, func(tid int, r *isa.RegFile) {
		r.Set(4, 1<<20)
	})
	var cycle engine.Cycle
	for !w.Done() {
		q.RunUntil(cycle)
		w.Tick()
		if w.splitCount > 6 {
			t.Fatalf("WST bound exceeded: %d > 6", w.splitCount)
		}
		cycle++
		if cycle > 1_000_000 {
			t.Fatal("kernel did not finish")
		}
	}
	if w.Stats.PeakSplits > 6 {
		t.Fatalf("PeakSplits = %d > bound", w.Stats.PeakSplits)
	}
}

// fork is the one subdivision mechanism: every trigger's scope, stack and
// progress bookkeeping is this function's.
func TestFork(t *testing.T) {
	outer := &SyncScope{reconvPC: 17}
	for _, tc := range []struct {
		name      string
		private   bool // s carries a serialised branch on its stack
		limit     bool
		wantScope bool // a new scope is created (else the old one is inherited)
		wantPC    int  // its reconvPC: syncPC() before the narrowing
	}{
		{"base stack", false, false, false, 0},
		{"base stack, limit", false, true, true, 17},
		{"private stack", true, false, true, 42},
		{"private stack, limit", true, true, true, 42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, _, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
			launchSimple(t, w, haltOnly(t), 4, nil)
			s := w.warps[0].splits[0]
			s.scope, s.prog, s.pc = outer, 9, 5
			if tc.private {
				s.stack = append(s.stack, StackEntry{ReconvPC: 42, PC: 5, Mask: 0xF})
			}
			oldStack, slot, id := s.stack, s.slotIdx, w.nextSplitID
			if got := s.syncPC(); tc.wantScope && got != tc.wantPC {
				t.Fatalf("syncPC before fork = %d, want %d", got, tc.wantPC)
			}

			sib := w.fork(s, tc.limit, 0x3, 7, 0xC, 6)

			if s.mask != 0x3 || s.pc != 7 || !s.baseStack() || s.stack[0] != (StackEntry{ReconvPC: program.NoIPdom, PC: 7, Mask: 0x3}) {
				t.Errorf("parent not narrowed to 0x3@7 at base stack: %v stack %+v", s, s.stack)
			}
			if !s.resident || s.slotIdx != slot || w.slots[slot] != s {
				t.Errorf("parent lost its scheduler slot")
			}
			if sib.mask != 0xC || sib.pc != 6 || !sib.baseStack() || sib.state != Ready || sib.prog != 9 {
				t.Errorf("sibling = %v prog %d, want ready 0xC@6 with the parent's progress 9", sib, sib.prog)
			}
			if sib.id != id+1 || sib.resident || w.splitCount != 1 {
				t.Errorf("sibling must be the next id and not yet added: id %d (was %d), resident %v, splitCount %d",
					sib.id, id, sib.resident, w.splitCount)
			}
			if sib.scope != s.scope {
				t.Fatalf("siblings in different scopes")
			}
			if !tc.wantScope {
				if s.scope != outer {
					t.Errorf("scope not inherited")
				}
				if &s.stack[0] != &oldStack[0] {
					t.Errorf("parent's own stack slice was replaced without a freeze")
				}
				return
			}
			sc := s.scope
			if sc == outer || sc.parent != outer || sc.warp != s.warp {
				t.Fatalf("new scope %+v must nest in the old one", sc)
			}
			if sc.reconvPC != tc.wantPC || sc.limitControl != tc.limit || sc.expected != 0xF || sc.arrived != 0 {
				t.Errorf("scope = %+v, want reconvPC %d limit %v expected 0xF", sc, tc.wantPC, tc.limit)
			}
			if len(sc.frozen) != len(oldStack) || &sc.frozen[0] != &oldStack[0] || &s.stack[0] == &oldStack[0] {
				t.Errorf("the old stack must move into the scope and the parent get another")
			}
		})
	}
}

// TestHitCompletionsShareAnEvent: the hits of one SIMD access that are ready
// in the same cycle, with no miss between them, complete as one event
// (execMem), and the access's split still becomes Ready in the cycle it did
// when every line had an event of its own. Four lanes per line; the L1 has
// four banks, so lines 0 and 4 queue on one.
func TestHitCompletionsShareAnEvent(t *testing.T) {
	b := program.NewBuilder("gather")
	b.Ld(11, 4, 0)
	b.Halt()
	p := b.MustBuild()
	for _, tc := range []struct {
		name     string
		lines    [4]uint64 // the line lanes 4i..4i+3 read
		resident []uint64  // the lines in the L1 beforehand
		events   int       // pending once the load has issued
		ready    uint64    // cycles from issue until the split is Ready
	}{
		{"four resident lines on four banks", [4]uint64{0, 1, 2, 3}, []uint64{0, 1, 2, 3}, 1, 3},
		{"two of them on one bank", [4]uint64{0, 1, 2, 4}, []uint64{0, 1, 2, 4}, 2, 4},
		{"hit, miss, hit", [4]uint64{0, 1, 2, 2}, []uint64{0, 2}, 3, 64},
	} {
		w, q, h := newBareWPU(t, SchemeConv.Apply(Config{Warps: 1, Width: 16}))
		base := h.Mem.AllocWords(1024)
		for _, l := range tc.resident {
			h.L1s[0].Access(base+l*128, false, nil)
		}
		q.Drain()
		launchSimple(t, w, p, 16, func(tid int, r *isa.RegFile) {
			r.Set(4, int64(base+tc.lines[tid/4]*128+uint64(tid%4)*8))
		})
		s := w.warps[0].splits[0]
		cycle := q.Now()
		for ; w.Stats.MemAccesses == 0; cycle++ {
			q.RunUntil(cycle)
			w.Tick()
		}
		issued := cycle - 1
		if got := q.Len(); got != tc.events {
			t.Errorf("%s: %d events pending after the load issued, want %d", tc.name, got, tc.events)
		}
		for ; s.state != Ready; cycle++ {
			q.RunUntil(cycle)
		}
		if got := uint64(cycle - 1 - issued); got != tc.ready {
			t.Errorf("%s: split Ready %d cycles after the load issued, want %d", tc.name, got, tc.ready)
		}
	}
}

// pendingAccess stands in for execMem's issue of one access with two lines
// in flight: it takes a completion token for each lane set and makes them
// the current instruction's groups, so that the caller's assignOwner or
// trySlip routes them. It returns the two token indexes.
func pendingAccess(w *WPU, a, b Mask) (int32, int32) {
	ta, tb := w.allocToken(a), w.allocToken(b)
	w.memGroups = append(w.memGroups[:0], lineGroup{lanes: a, tok: ta}, lineGroup{lanes: b, tok: tb})
	return ta, tb
}

// TestWaitMergeHandsOffCompletions: after two groups suspended at one PC
// wait-merge, a line completion for lanes of the absorbed group readies
// the survivor.
func TestWaitMergeHandsOffCompletions(t *testing.T) {
	w, _, _ := newBareWPU(t, SchemeRevive.Apply(Config{Warps: 1, Width: 8}))
	launchSimple(t, w, haltOnly(t), 8, nil)
	s := w.warps[0].splits[0]
	o := w.fork(s, false, 0x0F, 5, 0xF0, 5)
	w.addSplit(o)
	mine, theirs := pendingAccess(w, 0x0F, 0xF0)
	for _, g := range []struct {
		s     *Split
		lanes Mask
	}{{s, 0x0F}, {o, 0xF0}} {
		w.setState(g.s, WaitMem)
		g.s.pending, g.s.memSince = g.lanes, 1
		w.assignOwner(g.s, g.lanes)
	}

	w.tryWaitMerge(s)
	if o.state != Dead || s.mask != 0xFF || s.pending != 0xFF {
		t.Fatalf("no wait-merge: survivor %v pending=%#x, absorbed %v", s, uint64(s.pending), o)
	}
	w.HandleEvent(uint64(mine))
	w.HandleEvent(uint64(theirs))
	if !s.pending.Empty() || s.state != Ready {
		t.Fatalf("the absorbed group's completion did not reach the survivor: %v pending=%#x", s, uint64(s.pending))
	}
}
