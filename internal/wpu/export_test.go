package wpu

// ArenaObjects returns how many splits, sync scopes and slip groups the
// WPU's arenas have carved since the last launch: the most of each that the
// launch held at once, dead ones not yet reclaimed included.
func (w *WPU) ArenaObjects() (splits, scopes, slips int) {
	return w.splits.carved(), w.scopes.carved(), w.slips.carved()
}

func (a *slab[T]) carved() int { return a.chunk*slabChunk + a.used }
