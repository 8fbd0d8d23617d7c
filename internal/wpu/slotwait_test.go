package wpu_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// TestSlotWaitersCountsLiveSplits: the slot-wait count the sampler and the
// scheduling dump print is the number of live splits queued for a slot, in
// every cycle. A split that dies queued leaves a hole in the queue, and
// KMeans under ReviveSplit kills queued splits often enough that counting
// the holes would read several times the WST.
func TestSlotWaitersCountsLiveSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls KMeans cycle by cycle")
	}
	spec, err := workloads.ByName("KMeans")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WPU = wpu.SchemeRevive.Apply(cfg.WPU)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	peak, bad := 0, 0
	sys.Observe(1, func(cycle uint64) {
		for _, w := range sys.WPUs {
			got, want := w.SlotWaiters(), w.QueuedSplits()
			peak = max(peak, want)
			if got != want && bad < 5 {
				bad++
				t.Errorf("cycle %d, WPU %d: SlotWaiters() = %d, %d splits queued", cycle, w.ID, got, want)
			}
		}
	})
	if err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("at most %d splits queued on one WPU", peak)
}
