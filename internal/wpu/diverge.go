package wpu

import (
	"fmt"

	"repro/internal/obs"
)

// Divergence and re-convergence: the one fork under the three triggers, the
// one absorb under the two PC merges, and the sync scopes a fork freezes.

// wstRoom reports whether the warp-split table can accept one more entry.
func (w *WPU) wstRoom() bool {
	if w.splitCount < w.cfg.WSTEntries {
		return true
	}
	w.Stats.WSTFullRefusals++
	w.wstFullAt = w.q.Now() + 1
	if w.trace != nil {
		w.emit(obs.EvWSTRefusal, -1, -1, 0, 0)
	}
	return false
}

// fork is the one way a SIMD group subdivides, whatever diverged: s narrows
// to keep@keepPC, keeping its scheduler slot, and the returned sibling — not
// yet added — takes mask@pc and s's progress. A private stack is frozen into
// a new sync scope (§4.4); limit asks for one even at base stack, which also
// stalls its members at the next branch (BranchLimited, §5.3.1). The sibling
// is created first so both take their pooled stacks in a fixed order.
func (w *WPU) fork(s *Split, limit bool, keep Mask, keepPC int, mask Mask, pc int) *Split {
	scope := s.scope
	frozen := limit || !s.baseStack()
	if frozen {
		scope = w.scopes.put(SyncScope{
			warp:         s.warp,
			reconvPC:     s.syncPC(),
			limitControl: limit,
			expected:     s.mask,
			frozen:       s.stack,
			parent:       s.scope,
		}, w.epoch)
	}
	sib := w.newSplit(s.warp, mask, pc, scope)
	sib.prog = s.prog
	s.mask, s.pc = keep, keepPC
	w.resetStack(s, frozen, keepPC, keep)
	s.scope = scope
	return sib
}

// absorb is the one way two SIMD groups re-unite (§4.5): target takes
// victim's threads, the larger progress count and any slip groups, and
// victim retires without disturbing the scope both belong to.
func (w *WPU) absorb(target, victim *Split) {
	target.mask |= victim.mask
	target.stack[0].Mask = target.mask
	if victim.prog > target.prog {
		target.prog = victim.prog
		w.syncProg(target)
	}
	for _, e := range victim.slipped {
		e.split = target
	}
	target.slipped = append(target.slipped, victim.slipped...)
	target.parked = append(target.parked, victim.parked...)
	victim.slipped = nil
	victim.parked = nil
	victim.scope = nil
	w.removeSplit(victim)
}

// settle applies re-convergence to a split that just became runnable: stack
// pops, retirement and scope arrival, then a PC merge if it is still Ready.
// (issueOne ends every issue with the same step, so execBranch has none.)
func (w *WPU) settle(s *Split) {
	w.postPCUpdate(s)
	if s.state == Ready && w.cfg.PCReconv {
		w.tryPCMerge(s)
	}
}

// subdivideBranch forks s into two concurrently schedulable warp-splits
// (§4.2). If s carries a private stack it is frozen into a sync scope whose
// re-convergence PC is the post-dominator on top of the stack (§4.4).
func (w *WPU) subdivideBranch(s *Split, taken, notTaken Mask, target int) {
	w.Stats.BranchSubdivisions++
	if w.trace != nil {
		w.emit(obs.EvBranchSubdiv, s.warp.id, s.pc, taken, notTaken)
	}
	// The taken path keeps the split object (and its scheduler slot).
	nt := w.fork(s, false, taken, target, notTaken, s.pc+1)
	w.addSplit(nt)
	w.postPCUpdate(nt)
	w.postPCUpdate(s)
}

// shouldMemSubdivide applies the §5.2 subdivision schemes at access time.
func (w *WPU) shouldMemSubdivide(s *Split) bool {
	switch w.cfg.MemScheme {
	case AggressSplit:
		return w.wstRoom()
	case LazySplit, ReviveSplit:
		// Subdivide only when no other SIMD group can hide the latency.
		return !w.anyOtherReady(s) && w.wstRoom()
	}
	return false
}

// subdivideMem forks s at a memory divergence (§5.4): threads that hit form
// a run-ahead split; s remains the fall-behind split (it owns the pending
// line completions). Under BranchLimited a sync scope always binds the
// children; under BranchBypass one is needed only to freeze a non-base
// stack.
func (w *WPU) subdivideMem(s *Split, hitMask, missMask Mask) {
	w.Stats.MemSubdivisions++
	if w.trace != nil {
		w.emit(obs.EvMemSubdiv, s.warp.id, s.pc, hitMask, missMask)
	}
	hit := w.fork(s, w.cfg.MemReconv == BranchLimited, missMask, s.pc, hitMask, s.pc)
	hit.waitDiv = true
	w.setState(hit, WaitMem) // completes after the hit latency
	hit.pending = hitMask

	s.memSince = 0
	s.waitDiv = true
	w.setState(s, WaitMem)
	s.pending = missMask

	w.assignOwner(hit, hitMask)
	w.assignOwner(s, missMask)
	w.addSplit(hit)
}

// tryRevive implements ReviveSplit's second trigger (§5.2): when the
// pipeline stalls, subdivide one suspended SIMD group whose outstanding
// requests have partially completed, letting the satisfied threads run.
func (w *WPU) tryRevive() bool {
	for _, s := range w.slots {
		if s == nil || s.state != WaitMem {
			continue
		}
		arrived := s.mask &^ s.pending
		if arrived.Empty() || s.pending.Empty() {
			continue
		}
		if !w.wstRoom() {
			return false
		}
		w.Stats.Revivals++
		w.Stats.MemSubdivisions++
		w.progress++
		if w.trace != nil {
			w.emit(obs.EvRevive, s.warp.id, s.pc, arrived, s.pending)
		}
		ready := w.fork(s, w.cfg.MemReconv == BranchLimited, s.pending, s.pc, arrived, s.pc)
		s.memSince = 0
		w.addSplit(ready)
		w.settle(ready)
		return true
	}
	return false
}

// tryPCMerge implements PC-based re-convergence (§4.5): ready sibling
// splits of the same warp and scope whose PCs met re-unite into one wider
// SIMD group.
func (w *WPU) tryPCMerge(s *Split) {
	if !s.baseStack() {
		return
	}
	for {
		var other *Split
		for _, o := range s.warp.splits {
			if o == s || o.state != Ready || o.pc != s.pc || o.scope != s.scope || !o.baseStack() {
				continue
			}
			other = o
			break
		}
		if other == nil {
			return
		}
		target, victim := s, other
		if !s.resident && other.resident {
			target, victim = other, s
		}
		w.absorb(target, victim)
		w.Stats.PCMerges++
		if w.trace != nil {
			w.emit(obs.EvPCMerge, target.warp.id, target.pc, target.mask, victim.mask)
		}
		if target != s {
			// s was absorbed; continue merging from the survivor.
			s = target
		}
	}
}

// tryWaitMerge applies PC-based re-convergence to SIMD groups suspended at
// the same PC (§4.5 compares PCs when memory instructions execute; groups
// that fell into phase-lock — e.g. a run-ahead and a fall-behind streaming
// the same loop one miss apart — re-unite here). Freshly subdivided pairs
// are exempt: their whole point is to wait separately.
func (w *WPU) tryWaitMerge(s *Split) {
	if w.cfg.DisableWaitMerge {
		return
	}
	if !w.cfg.PCReconv || s.state != WaitMem || !s.baseStack() || s.memSince == 0 {
		return
	}
	for i := 0; i < len(s.warp.splits); i++ {
		o := s.warp.splits[i]
		// Re-unite with siblings suspended at the same PC, and with ready
		// siblings parked there (they pay the remainder of s's wait — a few
		// cycles for hits; ReviveSplit re-splits them if it drags on).
		if o == s || (o.state != WaitMem && o.state != Ready) || o.pc != s.pc ||
			o.scope != s.scope || !o.baseStack() || o.memSince == 0 {
			continue
		}
		s.pending |= o.pending
		if o.state == WaitMem {
			if o.waitDiv && !s.waitDiv {
				// The survivor now waits on a divergent access too; o's own
				// count is released when absorb retires it.
				s.waitDiv = true
				w.memWaitDiv++
			}
			if w.trace != nil {
				w.trace.Hists.WaitMergeWait.Record(uint64(w.q.Now() - o.waitSince))
			}
		}
		w.handOff(o, s, o.pending)
		w.absorb(s, o)
		w.Stats.WaitMerges++
		if w.trace != nil {
			w.emit(obs.EvWaitMerge, s.warp.id, s.pc, s.mask, o.mask)
		}
		i = -1 // the splits slice changed; rescan
	}
}

// arriveAtScope parks a split's threads at its sync scope (stack-based
// re-convergence, §4.4; or the BranchLimited barrier at a branch, §5.3.1).
func (w *WPU) arriveAtScope(s *Split) {
	w.progress++
	w.promoteAllSlip(s)
	sc := s.scope
	if !sc.arrived.Empty() && sc.arrivedPC != s.pc {
		panic(fmt.Sprintf("wpu: %s arrives at scope{reconvPC=%d} at pc %d but earlier arrivals parked at %d",
			s, sc.reconvPC, s.pc, sc.arrivedPC))
	}
	if w.trace != nil {
		w.emit(obs.EvScopeArrive, s.warp.id, s.pc, s.mask, sc.expected)
	}
	sc.arrived |= s.mask
	sc.arrivedPC = s.pc
	s.scope = nil
	w.removeSplit(s)
	w.maybeCompleteScope(sc)
}

// maybeCompleteScope re-creates the frozen SIMD group once every expected
// thread has arrived (or halted), then resumes the conventional stack.
func (w *WPU) maybeCompleteScope(sc *SyncScope) {
	sc.expected &^= sc.warp.halted
	sc.arrived &^= sc.warp.halted
	if sc.arrived != sc.expected {
		return
	}
	w.Stats.ScopeMerges++
	if w.trace != nil {
		w.emit(obs.EvScopeMerge, sc.warp.id, sc.arrivedPC, sc.expected, 0)
	}
	w.nextSplitID++
	merged := w.splits.put(Split{
		id:    w.nextSplitID,
		warp:  sc.warp,
		mask:  sc.expected,
		pc:    sc.arrivedPC,
		state: Ready,
		stack: sc.frozen,
		scope: sc.parent,
		born:  w.q.Now(),
	}, w.epoch)
	if sc.expected.Empty() {
		merged.pc = sc.reconvPC
	}
	merged.tos().Mask = sc.expected
	w.scopes.release(sc, w.epoch)
	w.addSplit(merged)
	w.settle(merged)
}
