package wpu

import (
	"fmt"
	"strings"
)

// DebugDump renders the WPU's scheduling state for deadlock diagnostics.
func (w *WPU) DebugDump() string {
	if w.Done() {
		return fmt.Sprintf("WPU %d: done\n", w.ID)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "WPU %d: %d splits, %d waiting for slots, cur=%v\n", w.ID, w.splitCount, w.SlotWaiters(), w.cur)
	for i, s := range w.slots {
		fmt.Fprintf(&sb, "  slot %d: %v\n", i, s)
	}
	for _, warp := range w.warps {
		if warp.live == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  warp %d live=%#x halted=%#x\n", warp.id, uint64(warp.live), uint64(warp.halted))
		for _, s := range warp.splits {
			fmt.Fprintf(&sb, "    %s resident=%v pending=%#x stackDepth=%d",
				s, s.resident, uint64(s.pending), len(s.stack))
			if s.scope != nil {
				fmt.Fprintf(&sb, " scope{reconvPC=%d limit=%v expected=%#x arrived=%#x}",
					s.scope.reconvPC, s.scope.limitControl, uint64(s.scope.expected), uint64(s.scope.arrived))
			}
			for _, e := range s.slipped {
				fmt.Fprintf(&sb, " slip{pc=%d mask=%#x pending=%#x}", e.pc, uint64(e.mask), uint64(e.pending))
			}
			for _, p := range s.parked {
				fmt.Fprintf(&sb, " parked{pc=%d mask=%#x}", p.pc, uint64(p.mask))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
