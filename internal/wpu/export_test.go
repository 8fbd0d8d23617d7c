package wpu

// ArenaObjects returns how many splits, sync scopes and slip groups the
// WPU's arenas have carved since the last launch: the most of each that the
// launch held at once, dead ones not yet reclaimed included.
func (w *WPU) ArenaObjects() (splits, scopes, slips int) {
	return w.splits.carved(), w.scopes.carved(), w.slips.carved()
}

func (a *slab[T]) carved() int { return a.chunk*slabChunk + a.used }

// QueuedSplits recounts the live splits whose queued flag is set.
func (w *WPU) QueuedSplits() int {
	n := 0
	for _, warp := range w.warps {
		for _, s := range warp.splits {
			if s.queued {
				n++
			}
		}
	}
	return n
}

// SlotWaitCap returns the capacity of the slot-wait queue's backing array.
func (w *WPU) SlotWaitCap() int { return cap(w.slotWait) }
