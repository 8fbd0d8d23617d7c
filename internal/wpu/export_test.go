package wpu

// ArenaObjects returns how many splits, sync scopes and slip groups the
// WPU's arenas have carved since the last launch: the most of each that the
// launch held at once, dead ones not yet reclaimed included.
func (w *WPU) ArenaObjects() (splits, scopes, slips int) {
	return w.splits.carved(), w.scopes.carved(), w.slips.carved()
}

func (a *slab[T]) carved() int { return a.chunk*slabChunk + a.used }

// SlotWaitIDs appends to dst the ids of the splits in the slot-wait queue,
// front first.
func (w *WPU) SlotWaitIDs(dst []int) []int {
	for _, s := range w.slotWait {
		dst = append(dst, s.id)
	}
	return dst
}

// SplitIDs appends to live the ids of the WPU's live splits, and to queued
// the ids of those whose queued flag is set.
func (w *WPU) SplitIDs(live, queued []int) ([]int, []int) {
	for _, warp := range w.warps {
		for _, s := range warp.splits {
			live = append(live, s.id)
			if s.queued {
				queued = append(queued, s.id)
			}
		}
	}
	return live, queued
}

// SlotWaitCap returns the capacity of the slot-wait queue's backing array.
func (w *WPU) SlotWaitCap() int { return cap(w.slotWait) }
