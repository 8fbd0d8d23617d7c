package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// checkCoherenceEvery has sys check the memory hierarchy's MESI invariants
// (mem.Hierarchy.CheckCoherence) in every cycle that is a multiple of
// every, failing t at the first violation.
func checkCoherenceEvery(t *testing.T, name string, sys *sim.System, every uint64) {
	t.Helper()
	sys.Observe(every, func(cycle uint64) {
		if msg := sys.Hier.CheckCoherence(); msg != "" {
			t.Fatalf("%s: cycle %d: %s", name, cycle, msg)
		}
	})
}

// TestL2MSHRFullStaysCoherent: at 16 WPUs the L1s can have 512 misses in
// flight against the L2's 256 MSHRs, so KMeans fills every L2 MSHR. The
// requests that find none free must wait for one and then look the line up
// again; granting them against another line's frame leaves a line in an L1
// but not in the L2.
func TestL2MSHRFullStaysCoherent(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WPUs = 16
	cfg.WPU = wpu.SchemeConv.Apply(cfg.WPU)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCoherenceEvery(t, "KMeans/Conv", sys, 500)
	inst := build(t, "KMeans", sys)
	if err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	if full := sys.L2Stats().MSHRFull; full == 0 {
		t.Fatal("no request found every L2 MSHR busy; the test no longer reaches the waiting path")
	}
	if msg := sys.Hier.CheckCoherence(); msg != "" {
		t.Fatalf("after the run: %s", msg)
	}
}
