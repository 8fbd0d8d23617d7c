package wpu_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// checkPerSplitBounds crawls a KMeans run on a machine with the given
// scheme, scheduler slots and WST entries (0 keeps the default) and checks,
// in every cycle, that a WPU's per-split bookkeeping holds only what is live.
// KMeans makes thousands of splits per WPU and kills queued ones often.
//   - The slot-wait queue holds each split whose queued flag is set exactly
//     once and nothing else, and SlotWaiters() is that count.
//   - It is a FIFO: the splits still waiting keep their order at its front,
//     newcomers join at the back, and a split that left it alive (was
//     admitted) was ahead of every split still waiting.
//   - Its backing array stays within twice the most splits ever waiting on
//     the WPU.
//   - A launch carves at most 8 × WST splits, sync scopes and slip groups
//     from the WPU's arenas: the dead ones come back.
func checkPerSplitBounds(t *testing.T, scheme wpu.Scheme, slots, wsts int) {
	t.Helper()
	spec, err := workloads.ByName("KMeans")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WPU = scheme.Apply(cfg.WPU)
	cfg.WPU.SchedSlots, cfg.WPU.WSTEntries = slots, wsts
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	bound := 8 * sys.WPUs[0].Config().WSTEntries
	type queueState struct {
		prev, queue, live, queued, sorted []int
		peak                              int
	}
	states := make([]queueState, len(sys.WPUs))
	var arenaPeak [3]int
	bad := 0
	fail := func(cycle uint64, w *wpu.WPU, format string, args ...any) {
		if bad++; bad <= 5 {
			t.Errorf("cycle %d, WPU %d: %s", cycle, w.ID, fmt.Sprintf(format, args...))
		}
	}
	sys.Observe(1, func(cycle uint64) {
		for i, w := range sys.WPUs {
			st := &states[i]
			st.queue = w.SlotWaitIDs(st.queue[:0])
			st.live, st.queued = w.SplitIDs(st.live[:0], st.queued[:0])
			if n := w.SlotWaiters(); n != len(st.queued) {
				fail(cycle, w, "SlotWaiters() = %d, %d splits queued", n, len(st.queued))
			}
			st.sorted = append(st.sorted[:0], st.queue...)
			slices.Sort(st.sorted)
			slices.Sort(st.queued)
			if !slices.Equal(st.sorted, st.queued) {
				fail(cycle, w, "slot-wait queue holds %v, queued splits are %v", st.queue, st.queued)
			}
			// FIFO: last cycle's queue, less the splits that left it,
			// is the front of this one, and a split that left alive
			// was ahead of every split still waiting.
			k, waiting := 0, false
			for _, id := range st.prev {
				if slices.Contains(st.queue, id) {
					if k >= len(st.queue) || st.queue[k] != id {
						fail(cycle, w, "slot-wait queue went %v → %v", st.prev, st.queue)
						break
					}
					k, waiting = k+1, true
				} else if waiting && slices.Contains(st.live, id) {
					fail(cycle, w, "split %d admitted from %v ahead of an earlier waiter", id, st.prev)
					break
				}
			}
			st.prev = append(st.prev[:0], st.queue...)
			st.peak = max(st.peak, len(st.queue))
			if c := w.SlotWaitCap(); c > 2*st.peak {
				fail(cycle, w, "slot-wait capacity %d, at most %d splits ever waiting", c, st.peak)
			}
			splits, scopes, slips := w.ArenaObjects()
			for j, n := range [3]int{splits, scopes, slips} {
				arenaPeak[j] = max(arenaPeak[j], n)
				if n > bound {
					fail(cycle, w, "%d %s carved in one launch, more than %d (8 × WST)",
						n, [3]string{"splits", "sync scopes", "slip groups"}[j], bound)
				}
			}
		}
	})
	if err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, st := range states {
		peak = max(peak, st.peak)
	}
	t.Logf("per WPU: at most %d splits waiting; per launch: %d splits, %d scopes, %d slip groups carved",
		peak, arenaPeak[0], arenaPeak[1], arenaPeak[2])
}

// TestArenaBoundedByWST: checkPerSplitBounds under every scheme on the
// default machine.
func TestArenaBoundedByWST(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls KMeans cycle by cycle under every scheme")
	}
	for _, s := range wpu.AllSchemes {
		t.Run(string(s), func(t *testing.T) { checkPerSplitBounds(t, s, 0, 0) })
	}
}

// TestSlotWaitersCountsLiveSplits: checkPerSplitBounds on the two machines
// with the longest slot-wait queues, under ReviveSplit: Figure 20's 2 slots
// and Figure 21's 8 slots with 64 WST entries.
func TestSlotWaitersCountsLiveSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls KMeans cycle by cycle")
	}
	t.Run("Figure20", func(t *testing.T) { checkPerSplitBounds(t, wpu.SchemeRevive, 2, 0) })
	t.Run("Figure21", func(t *testing.T) { checkPerSplitBounds(t, wpu.SchemeRevive, 8, 64) })
}
