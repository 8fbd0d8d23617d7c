package workloads

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

func runBench(t *testing.T, spec Spec, scheme wpu.Scheme) *sim.System {
	t.Helper()
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
	if err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// Every benchmark must produce verified results under the conventional
// configuration. The other schemes are checked by report's suite oracle,
// TestRecycledMachineEqualsFresh, which under -short runs only 16 of its
// 96 points: this test is then the one run of every benchmark.
func TestAllBenchmarksConv(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			sys := runBench(t, spec, wpu.SchemeConv)
			st := sys.TotalStats()
			if st.Issued == 0 {
				t.Fatal("no instructions issued")
			}
			if st.MemAccesses == 0 {
				t.Fatal("no memory accesses")
			}
		})
	}
}

func TestBenchmarkCharacteristics(t *testing.T) {
	t.Run("Filter has no divergent branches", func(t *testing.T) {
		sys := runBench(t, mustSpec(t, "Filter"), wpu.SchemeConv)
		st := sys.TotalStats()
		if frac := float64(st.DivBranch) / float64(st.Branches); frac > 0.01 {
			t.Fatalf("filter divergent-branch fraction = %.3f, want ~0", frac)
		}
	})
	t.Run("Merge has divergent branches", func(t *testing.T) {
		sys := runBench(t, mustSpec(t, "Merge"), wpu.SchemeConv)
		st := sys.TotalStats()
		if frac := float64(st.DivBranch) / float64(st.Branches); frac < 0.02 {
			t.Fatalf("merge divergent-branch fraction = %.3f, want noticeable", frac)
		}
	})
	t.Run("benchmarks exhibit memory divergence", func(t *testing.T) {
		for _, name := range []string{"FFT", "Filter", "Merge", "KMeans"} {
			sys := runBench(t, mustSpec(t, name), wpu.SchemeConv)
			st := sys.TotalStats()
			if st.MemDivergent == 0 {
				t.Errorf("%s: no divergent memory accesses", name)
			}
		}
	})
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSuiteComplete(t *testing.T) {
	want := []string{"FFT", "Filter", "HotSpot", "LU", "Merge", "Short", "KMeans", "SVM"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, s.Name, want[i])
		}
		if s.Desc == "" {
			t.Fatalf("%s has no description", s.Name)
		}
	}
}
