package wpu_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// TestArenaBoundedByWST: a WPU's splits, sync scopes and slip groups come
// back to their arenas when they die, so a launch never holds more of them
// than a small multiple of the warp-split table, however many subdivisions
// it makes. At scale 4 a KMeans launch creates thousands of splits per WPU
// under ReviveSplit, and hundreds of slip groups under Slip.
func TestArenaBoundedByWST(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates KMeans at scale 4 under every scheme")
	}
	spec, err := workloads.ByNameScaled("KMeans", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range wpu.AllSchemes {
		t.Run(string(scheme), func(t *testing.T) {
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
			bound := 8 * cfg.WPU.WSTEntries
			var peak [3]int
			for i, st := range inst.Steps() {
				if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
					t.Fatalf("launch %d: %v", i, err)
				}
				for _, w := range sys.WPUs {
					splits, scopes, slips := w.ArenaObjects()
					for j, n := range [3]int{splits, scopes, slips} {
						peak[j] = max(peak[j], n)
					}
				}
			}
			if err := inst.Verify(); err != nil {
				t.Fatal(err)
			}
			for j, what := range [3]string{"splits", "sync scopes", "slip groups"} {
				if peak[j] > bound {
					t.Errorf("a WPU held %d %s in one launch, more than %d (8 × %d WST entries)",
						peak[j], what, bound, cfg.WPU.WSTEntries)
				}
			}
			t.Logf("per-WPU per-launch high-water: %d splits, %d scopes, %d slip groups", peak[0], peak[1], peak[2])
		})
	}
}
