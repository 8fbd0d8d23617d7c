package wpu

import "repro/internal/obs"

// Adaptive slip (§5.7, after Tarjan et al. [33]): on memory divergence the
// threads that hit continue within the same scheduling entity while the
// missing threads fall behind; fall-behind groups re-unite when the
// run-ahead portion revisits their PC (loops), or are swapped in when the
// run-ahead stalls at a conditional branch (no branch predication) or
// halts. The maximum number of slipped threads is adapted by runtime
// profiling.
//
// Slip interacts with control flow through two safety rules this
// implementation enforces (the paper's hardware has the same constraints
// implicitly, via its stack-outcome mechanism):
//   - a group may only slip from a split whose private re-convergence
//     stack is fully unwound, and only re-joins a split in the same
//     sync-scope context;
//   - when a slipped group's owner leaves that context (it retires or
//     arrives at a scope), the group is promoted to an independent split
//     so its threads are never stranded.

// trySlip lets hitting threads run ahead under adaptive slip. It returns
// false (caller falls back to a conventional full-group wait) when the
// divergence cap would be exceeded or the split is inside a serialised
// branch arm.
func (w *WPU) trySlip(s *Split, hitMask, missMask Mask) bool {
	if !s.baseStack() {
		w.Stats.SlipRefused++
		return false
	}
	if s.slipCount()+missMask.Count() > w.maxSlip {
		w.Stats.SlipRefused++
		return false
	}
	w.Stats.SlipEvents++
	if w.trace != nil {
		w.emit(obs.EvSlip, s.warp.id, s.pc, hitMask, missMask)
	}
	e := w.slips.put(slipEntry{split: s, mask: missMask, pc: s.pc, pending: missMask, scope: s.scope}, w.epoch)
	s.slipped = append(s.slipped, e)
	w.assignOwner(e, missMask)

	s.mask = hitMask
	s.stack[0].Mask = hitMask
	s.waitDiv = true
	w.setState(s, WaitMem) // the hits still pay the hit latency
	s.pending = hitMask
	w.assignOwner(s, hitMask)
	return true
}

// onLineDone completes a fall-behind group's outstanding lines; if its
// split is stalled waiting to swap (WaitSlip), the group takes over the
// pipeline immediately.
func (e *slipEntry) onLineDone(lanes Mask) {
	e.pending &^= lanes
	s := e.split
	if e.pending.Empty() && s.state == WaitSlip {
		if s.warp.wpu.slipSwapIn(s) {
			s.warp.wpu.setState(s, Ready)
		}
	}
}

// slipAbsorb re-unites the active portion with any fall-behind or parked
// groups whose PC matches the current PC (the loop-revisit re-convergence).
func (w *WPU) slipAbsorb(s *Split) {
	for i := 0; i < len(s.slipped); {
		e := s.slipped[i]
		if e.pc == s.pc && e.pending.Empty() && e.scope == s.scope && s.baseStack() {
			s.mask |= e.mask
			s.stack[0].Mask = s.mask
			s.slipped = append(s.slipped[:i], s.slipped[i+1:]...)
			w.slips.release(e, w.epoch)
			w.Stats.SlipMerges++
			if w.trace != nil {
				w.emit(obs.EvSlipMerge, s.warp.id, s.pc, s.mask, e.mask)
			}
			continue
		}
		i++
	}
	for len(s.parked) > 0 {
		p := s.parked[len(s.parked)-1]
		if p.pc != s.pc {
			break
		}
		s.mask |= p.mask
		s.stack[0].Mask = s.mask
		s.parked = s.parked[:len(s.parked)-1]
		w.Stats.SlipMerges++
		if w.trace != nil {
			w.emit(obs.EvSlipMerge, s.warp.id, s.pc, s.mask, p.mask)
		}
	}
}

// slipSwapIn parks the current run-ahead portion and activates a
// fall-behind group whose data has arrived, so it can catch up to the
// stall point. Groups from other scope contexts are promoted to
// independent splits first. It returns false when no fall-behind group is
// runnable yet.
func (w *WPU) slipSwapIn(s *Split) bool {
	w.promoteAlienSlip(s)
	for i, e := range s.slipped {
		if !e.pending.Empty() {
			continue
		}
		if !s.mask.Empty() {
			s.parked = append(s.parked, parkedEntry{mask: s.mask, pc: s.pc})
		}
		s.mask = e.mask
		s.stack[0].Mask = s.mask
		s.pc = e.pc
		s.slipped = append(s.slipped[:i], s.slipped[i+1:]...)
		w.slips.release(e, w.epoch)
		w.progress++
		return true
	}
	return false
}

// promoteSlipEntry turns a fall-behind group into an independent split in
// its recorded scope context, which takes over the group's in-flight
// completions.
func (w *WPU) promoteSlipEntry(s *Split, e *slipEntry) {
	ns := w.newSplit(s.warp, e.mask, e.pc, e.scope)
	if !e.pending.Empty() {
		ns.waitDiv = true       // fall-behind threads of a divergent access
		w.setState(ns, WaitMem) // via setState: the memWait count must see it
		ns.pending = e.pending
		w.handOff(e, ns, e.pending)
	}
	w.slips.release(e, w.epoch)
	w.addSplit(ns)
	w.progress++
	if ns.state == Ready {
		w.postPCUpdate(ns)
	}
}

// promoteAlienSlip promotes the slipped groups that can no longer re-join
// s because their scope context differs.
func (w *WPU) promoteAlienSlip(s *Split) {
	for i := 0; i < len(s.slipped); {
		e := s.slipped[i]
		if e.scope != s.scope {
			s.slipped = append(s.slipped[:i], s.slipped[i+1:]...)
			w.promoteSlipEntry(s, e)
			continue
		}
		i++
	}
}

// promoteAllSlip promotes every remaining fall-behind and parked group;
// called when s leaves its context entirely (retire or scope arrival).
func (w *WPU) promoteAllSlip(s *Split) {
	slipped := s.slipped
	parked := s.parked
	s.slipped = nil
	s.parked = nil
	for _, e := range slipped {
		w.promoteSlipEntry(s, e)
	}
	for _, p := range parked {
		ns := w.newSplit(s.warp, p.mask, p.pc, s.scope)
		w.addSplit(ns)
		w.progress++
		w.postPCUpdate(ns)
	}
}

// The adaptive-slip profiling parameters of §5.7.
const (
	slipInterval = 100000 // cycles
	slipRaise    = 0.70
	slipLower    = 0.50
)

// adaptSlip applies the paper's dynamic profiling: every slipInterval
// cycles, raise the divergence cap when the WPU spent more than slipRaise
// of the time waiting for memory, lower it when the pipeline was actively
// executing more than slipLower of the time.
func (w *WPU) adaptSlip() {
	if w.cfg.Slip == SlipOff {
		return
	}
	elapsed := w.Stats.Cycles() - w.intervalStart
	if elapsed < slipInterval {
		return
	}
	waitFrac := float64(w.intervalWait) / float64(elapsed)
	busyFrac := float64(w.intervalBusy) / float64(elapsed)
	switch {
	case waitFrac > slipRaise && w.maxSlip < w.cfg.Width:
		w.maxSlip++
	case busyFrac > slipLower && w.maxSlip > 0:
		w.maxSlip--
	}
	w.intervalStart = w.Stats.Cycles()
	w.intervalBusy = 0
	w.intervalWait = 0
}
