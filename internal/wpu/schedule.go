package wpu

import (
	"math/bits"
	"slices"
)

// The bounded scheduler (§5.6/§6.6): slots and the slot-wait queue, the
// ready mask and progress row pickNext scans, and stall attribution.

// addSplit registers a split in the warp and gives it a scheduler slot if
// one is free; otherwise it queues for one.
func (w *WPU) addSplit(s *Split) {
	s.warp.splits = append(s.warp.splits, s)
	if w.splitCount == 0 && w.unhalted == 0 {
		w.doneChanged(false)
	}
	w.splitCount++
	if w.splitCount > w.Stats.PeakSplits {
		w.Stats.PeakSplits = w.splitCount
	}
	w.acquireSlot(s)
}

// acquireSlot makes s resident when a slot is free, else queues it.
func (w *WPU) acquireSlot(s *Split) {
	if s.resident || s.state == Dead {
		return
	}
	for i := range w.slots {
		if w.slots[i] == nil {
			w.slots[i] = s
			s.resident = true
			s.slotIdx = i
			w.syncProg(s)
			if s.state == Ready {
				w.readyMask |= 1 << uint(i)
			}
			return
		}
	}
	w.Stats.SlotWaits++
	w.slotWait = append(w.slotWait, s)
	s.queued = true
	if s.state == Ready {
		w.slotWaitReady++
	}
}

// releaseSlot takes s out of the scheduler (it hit a synchronization
// point, §6.6) and admits a waiting split.
func (w *WPU) releaseSlot(s *Split) {
	if !s.resident {
		return
	}
	s.resident = false
	i := s.slotIdx
	w.slots[i] = nil
	w.readyMask &^= 1 << uint(i)
	w.admitWaiter(i)
}

// removeSplit retires a split, freeing its slot and admitting a waiter.
func (w *WPU) removeSplit(s *Split) {
	sp := s.warp.splits
	for i := range sp {
		if sp[i] == s {
			s.warp.splits = append(sp[:i], sp[i+1:]...)
			break
		}
	}
	w.splitCount--
	if w.splitCount == 0 && w.unhalted == 0 {
		w.doneChanged(true)
	}
	if w.cur == s {
		w.cur = nil
	}
	w.releaseSlot(s)
	if s.state == AtBarrier {
		w.moveBarrier(-1)
	}
	if s.state == WaitMem || s.state == WaitSlip {
		w.memWait--
		if s.waitDiv {
			w.memWaitDiv--
		}
	}
	if w.trace != nil {
		w.trace.Hists.SplitLife.Record(uint64(w.q.Now() - s.born))
	}
	// A split that dies queued for a slot leaves the queue, so that nothing
	// names the object it releases.
	if s.queued {
		if s.state == Ready {
			w.slotWaitReady--
		}
		i := slices.Index(w.slotWait, s)
		w.slotWait = slices.Delete(w.slotWait, i, i+1)
	}
	s.state = Dead
	// Recycle the stack, and nil it so a use of the dead split fails fast
	// instead of corrupting a reused slice.
	if s.stack != nil {
		w.stackPool = append(w.stackPool, s.stack)
		s.stack = nil
	}
	w.splits.release(s, w.epoch)
}

// admitWaiter gives the freed slot to the split at the front of the
// slot-wait queue, if any.
func (w *WPU) admitWaiter(slot int) {
	if len(w.slotWait) == 0 {
		return
	}
	c := w.slotWait[0]
	w.slotWait = slices.Delete(w.slotWait, 0, 1)
	c.queued = false
	if c.state == Ready {
		w.slotWaitReady--
	}
	w.slots[slot] = c
	c.resident = true
	c.slotIdx = slot
	w.syncProg(c)
	if c.state == Ready {
		w.readyMask |= 1 << uint(slot)
	}
}

// syncProg mirrors a resident split's progress counter into the dense
// slotProg row scanned by pickNext. Every prog mutation of a split
// that may hold a slot must be followed by a call here.
func (w *WPU) syncProg(s *Split) {
	if s.resident {
		w.slotProg[s.slotIdx] = s.prog<<6 | uint64(s.slotIdx&63)
	}
}

// setState transitions a split's scheduling state, keeping the ready-slot
// bitmask in sync for resident splits. Every transition of a split that may
// hold a slot must go through here.
func (w *WPU) setState(s *Split, st SplitState) {
	wasWait := s.state == WaitMem || s.state == WaitSlip
	isWait := st == WaitMem || st == WaitSlip
	if wasWait != isWait {
		if isWait {
			w.memWait++
			if s.waitDiv {
				w.memWaitDiv++
			}
			s.waitSince = w.q.Now()
		} else {
			w.memWait--
			if s.waitDiv {
				w.memWaitDiv--
				s.waitDiv = false
			}
		}
	}
	if s.queued {
		if s.state == Ready {
			w.slotWaitReady--
		}
		if st == Ready {
			w.slotWaitReady++
		}
	}
	s.state = st
	if s.resident {
		if st == Ready {
			w.readyMask |= 1 << uint(s.slotIdx)
		} else {
			w.readyMask &^= 1 << uint(s.slotIdx)
		}
	}
}

// pickNext selects the ready resident SIMD group whose threads have
// retired the fewest instructions, starting the scan round-robin for
// determinism and cross-warp fairness. Least-progressed-first keeps
// divergent siblings near-lockstep — the interleaving of Figure 6d — so
// they re-converge promptly instead of chasing each other through loops.
// It scans the ready-slot bitmask, visiting only ready slots: round-robin
// start, least-progressed wins, earlier slot in round-robin order breaks
// ties. Splitting the mask at rrNext preserves the rotation: bits at or
// past rrNext scan first.
func (w *WPU) pickNext() *Split {
	m := w.readyMask
	if m == 0 {
		return nil
	}
	if m&(m-1) == 0 {
		// One ready slot: every policy picks it.
		return w.pick(bits.TrailingZeros64(m))
	}
	// rrNext is always wrapped into [0, n) ⊆ [0, 63]; the &63 lets the
	// compiler drop the oversized-shift guards.
	r := uint(w.rrNext) & 63
	hi := m >> r << r
	lo := m ^ hi
	if w.cfg.DisableProgSched {
		// Ablation: plain round-robin — first ready in rotation.
		part := hi
		if part == 0 {
			part = lo
		}
		return w.pick(bits.TrailingZeros64(part))
	}
	// Least-progressed scan over the dense packed slotProg row: a pure
	// min-reduction per partition (compiled to CMOV — no data-dependent
	// branch), with the winning slot index recovered from the low bits.
	// A lower slot index wins prog ties within a partition, matching the
	// scan order; across partitions hi wins ties, so lo's winner is taken
	// only on strictly smaller prog.
	prog := (*[64]uint64)(w.slotProg)
	bestHi := ^uint64(0)
	for b := hi; b != 0; b &= b - 1 {
		bestHi = min(bestHi, prog[bits.TrailingZeros64(b)&63])
	}
	bestLo := ^uint64(0)
	for b := lo; b != 0; b &= b - 1 {
		bestLo = min(bestLo, prog[bits.TrailingZeros64(b)&63])
	}
	best := bestHi
	if bestLo>>6 < bestHi>>6 {
		best = bestLo
	}
	return w.pick(int(best & 63))
}

// pick returns the SIMD group in slot idx and starts the next scan's
// rotation just past it.
func (w *WPU) pick(idx int) *Split {
	w.rrNext = idx + 1
	if w.rrNext >= len(w.slots) {
		w.rrNext = 0
	}
	return w.slots[idx]
}

// readyOthers counts resident SIMD groups other than s that could issue.
func (w *WPU) readyOthers(s *Split) int {
	n := 0
	for _, o := range w.slots {
		if o != nil && o != s && o.state == Ready {
			n++
		}
	}
	return n
}

// anyOtherReady reports whether a SIMD group other than s could issue.
func (w *WPU) anyOtherReady(s *Split) bool { return w.readyOthers(s) > 0 }

// stallCycle attributes one non-issuing cycle to exactly one taxonomy
// bucket. The ladder is priority-ordered: front-end and scheduler-structure
// stalls (icache refill, WST full, slot wait) mask the underlying memory
// wait because removing them would let the cycle do useful work regardless
// of the outstanding misses; among memory waits, one divergent waiter makes
// the cycle divergent (the subdivision mechanisms target exactly those).
//
// It then decides whether the WPU may sleep. Every input of the ladder is a
// counter or a timestamp that only an event handler, a barrier release or
// this WPU's own issue changes, so when nothing can issue the next Tick
// would land in the same bucket, and so would every Tick after it until one
// of those happens. progressed says this Tick changed state without issuing;
// such a Tick may have readied a group, so the WPU stays awake.
func (w *WPU) stallCycle(progressed bool) {
	// memWait counts WaitMem/WaitSlip splits, so the common classification
	// is O(1); fall-behind slip groups (possible only in slip modes) still
	// need the scan when no split is waiting. memBound is the memory-stall
	// predicate adaptSlip was tuned with — intervalWait feeds it, and its
	// inputs must not shift.
	memBound := w.memWait > 0
	if !memBound && w.cfg.Slip != SlipOff {
		memBound = w.anySlipped()
	}
	if memBound {
		w.intervalWait++
	}
	now := w.q.Now()
	var bucket *uint64
	switch {
	case now < w.fetchStallUntil:
		bucket = &w.Stats.StallICache
	case w.wstFullAt == now+1:
		bucket = &w.Stats.StallWSTFull
	case w.readyWaiterQueued():
		bucket = &w.Stats.StallSlotWait
	case w.memWaitDiv > 0:
		bucket = &w.Stats.StallMemDivergent
	case w.memWait > 0:
		bucket = &w.Stats.StallMemCoherent
	case memBound:
		// Only slip fall-behind groups are outstanding: threads left behind
		// by a divergent access.
		bucket = &w.Stats.StallMemDivergent
	case w.atBarrier > 0:
		bucket = &w.Stats.StallBarrier
	default:
		bucket = &w.Stats.IdleNoLiveWarp
	}
	*bucket++

	// Three things repeat or move per stalled cycle with no event behind
	// them, and each keeps the WPU awake: the slip modes' adaptSlip interval
	// and intervalWait (and their WaitSlip swaps, which leave other groups
	// ready); a revival refused for a full WST, which counts a refusal and
	// emits EvWSTRefusal every cycle it is retried; and a ready resident
	// group, which issues next cycle (none is left once pickNext returned nil
	// or the front end waits for a refill, the only stalls without progress).
	if !progressed && w.cfg.Slip == SlipOff && w.wstFullAt != now+1 &&
		(w.readyMask == 0 || now < w.fetchStallUntil) {
		w.asleep, w.sleepFrom, w.sleepBucket = true, now+1, bucket
		if w.roster != nil {
			w.roster.remove(w.ID)
		}
	}
}

// anySlipped reports whether any split carries fall-behind slip groups.
func (w *WPU) anySlipped() bool {
	for _, warp := range w.warps {
		for _, s := range warp.splits {
			if len(s.slipped) > 0 {
				return true
			}
		}
	}
	return false
}

// readyWaiterQueued reports whether a runnable split is queued for a
// scheduler slot — the stall would clear with more slots, not faster
// memory. The slotWaitReady counter makes this O(1); scanning slotWait
// here cost ~40% of full-report wall time in the small-slot sweeps.
func (w *WPU) readyWaiterQueued() bool {
	return w.slotWaitReady > 0
}
