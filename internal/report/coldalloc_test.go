package report

import (
	"math"
	"testing"

	"repro/internal/wpu"
)

// TestColdRunAllocs holds a cold simulation, a new Session's Run with no
// store (build, run, verify and energy estimate all paid), of LU, Merge and
// KMeans under Conv and DWS.ReviveSplit to at most 10 % over the counts
// written here. Each count is the minimum of two readings, each after a
// warm-up run of its own: the warm-up prepares the benchmark, which a
// process does once (workloads' memo), and fills the recycled machine's
// pools, so what is counted is what every further simulation costs (the
// first reading in a process is higher: LU's reads 34). Before the memo each run prepared its benchmark again
// and these read 209, 213, 126, 126, 132 and 142.
func TestColdRunAllocs(t *testing.T) {
	for _, c := range []struct {
		bench  string
		scheme wpu.Scheme
		pin    float64
	}{
		{"LU", wpu.SchemeConv, 16},
		{"LU", wpu.SchemeRevive, 20},
		{"Merge", wpu.SchemeConv, 12},
		{"Merge", wpu.SchemeRevive, 12},
		{"KMeans", wpu.SchemeConv, 18},
		{"KMeans", wpu.SchemeRevive, 28},
	} {
		op := func() {
			if _, err := NewSession().Run(c.bench, DefaultKnobs(c.scheme)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := math.Inf(1)
		for range 2 {
			allocs = min(allocs, testing.AllocsPerRun(1, op))
		}
		t.Logf("%s under %s: %.0f allocs", c.bench, c.scheme, allocs)
		if allocs > 1.1*c.pin {
			t.Errorf("%s under %s: %.0f allocs, pinned at %.0f (+10 %% allowed)", c.bench, c.scheme, allocs, c.pin)
		}
	}
}
