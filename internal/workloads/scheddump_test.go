package workloads

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// TestSchedulingDumpGolden pins the order in which warp-splits are created
// and re-united. Cycle counts and memory hashes cannot see a split created
// under a different id or merged into the other sibling; the scheduling
// dump (split ids, masks, PCs, states, scopes, slip groups) can. The test
// hashes DebugDump of every WPU every 2000 cycles for two divergent kernels
// under one scheme per subdivision trigger — revive, BranchLimited scopes
// and slip promotion — and compares the digests with
// testdata/scheduling_dump.golden. Regenerate with -update (or make
// update-goldens) only when the scheduling order is meant to change.
func TestSchedulingDumpGolden(t *testing.T) {
	var sb strings.Builder
	for _, bench := range []string{"KMeans", "Merge"} {
		for _, scheme := range []wpu.Scheme{
			wpu.SchemeRevive, wpu.SchemeAggressBL, wpu.SchemeSlipBranchBypass,
		} {
			cfg := sim.DefaultConfig()
			cfg.WPU = scheme.Apply(cfg.WPU)
			sys, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := spec.Build(sys)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			dumps := 0
			sys.Observe(2000, func(cycle uint64) {
				dumps++
				fmt.Fprintf(h, "=== cycle %d ===\n", cycle)
				for _, w := range sys.WPUs {
					io.WriteString(h, w.DebugDump())
				}
			})
			if err := inst.Run(sys); err != nil {
				t.Fatalf("%s/%s: %v", bench, scheme, err)
			}
			fmt.Fprintf(&sb, "%s %s cycles=%d dumps=%d sha256=%x\n", bench, scheme, sys.Cycles(), dumps, h.Sum(nil))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "scheduling_dump.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("scheduling dumps drifted from %s (run with -update only if the order is meant to change)\ngot:\n%swant:\n%s", path, got, want)
	}
}
