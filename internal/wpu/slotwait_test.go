package wpu_test

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// TestSlotWaitersCountsLiveSplits: the slot-wait count the sampler and the
// scheduling dump print is the number of live splits queued for a slot, in
// every cycle. A split that dies queued leaves a hole in the queue, and
// KMeans under ReviveSplit kills queued splits often enough that counting
// the holes would read several times the WST. The queue's backing array
// stays within four times the most splits ever waiting on the WPU: the
// admitted prefix and the holes leave the slice once they are half of it,
// so it never holds more than twice the splits waiting, and append at most
// doubles that. Under these schemes KMeans queues at most eight splits per
// WPU but pushes thousands through the queue without ever draining it.
func TestSlotWaitersCountsLiveSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls KMeans cycle by cycle")
	}
	spec, err := workloads.ByName("KMeans")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []wpu.Scheme{wpu.SchemeRevive, wpu.SchemeAggress} {
		cfg := sim.DefaultConfig()
		cfg.WPU = scheme.Apply(cfg.WPU)
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		peak, bad := make([]int, len(sys.WPUs)), 0
		sys.Observe(1, func(cycle uint64) {
			for i, w := range sys.WPUs {
				got, want := w.SlotWaiters(), w.QueuedSplits()
				peak[i] = max(peak[i], want)
				if got != want && bad < 5 {
					bad++
					t.Errorf("%s, cycle %d, WPU %d: SlotWaiters() = %d, %d splits queued", scheme, cycle, w.ID, got, want)
				}
			}
		})
		if err := inst.Run(sys); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
		for i, w := range sys.WPUs {
			if c := w.SlotWaitCap(); c > 4*peak[i] {
				t.Errorf("%s, WPU %d: slot-wait capacity %d, at most %d splits ever waiting", scheme, i, c, peak[i])
			}
		}
		t.Logf("%s: at most %d splits queued on one WPU", scheme, slices.Max(peak))
	}
}
