package report

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/wpu"
)

// TestSweepTable checks the sweeps table as data: every row is an exhibit,
// names only knobs that exist, labels each value, reads its headline at a
// value it visits, and generates points the simulator can build.
func TestSweepTable(t *testing.T) {
	seen := make(map[string]bool)
	for i := range sweeps {
		sw := &sweeps[i]
		if seen[sw.id] {
			t.Errorf("sweeps row %q appears twice", sw.id)
		}
		seen[sw.id] = true
		if !slices.ContainsFunc(Exhibits, func(e Exhibit) bool { return e.ID == sw.id }) {
			t.Errorf("sweeps row %q is not in Exhibits", sw.id)
		}
		for _, name := range append([]string{sw.axis}, knobsOf(sw.fixed)...) {
			if !slices.Contains(KnobNames(), name) {
				t.Errorf("sweeps row %q names knob %q, not one of %v", sw.id, name, KnobNames())
			}
		}
		if len(sw.values) != len(sw.labels) {
			t.Errorf("sweeps row %q has %d values and %d labels", sw.id, len(sw.values), len(sw.labels))
		}
		if !slices.Contains(sw.values, sw.head) {
			t.Errorf("sweeps row %q reads its headline at %s = %d, which it does not visit", sw.id, sw.axis, sw.head)
		}
		for _, sc := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive} {
			pts, err := sw.points(sc)
			if err != nil {
				t.Errorf("sweeps row %q under %s: %v", sw.id, sc, err)
			}
			for i, k := range pts {
				if err := k.Validate(); err != nil {
					t.Errorf("sweeps row %q under %s at %d: %v", sw.id, sc, sw.values[i], err)
				}
			}
		}
	}
	if _, err := SweepPoints(wpu.SchemeConv, "bogus", []int{1}); err == nil {
		t.Error("SweepPoints accepted an unknown knob")
	}
	if _, err := SweepPoints(wpu.SchemeConv, "l1kb", []int{32, 0}); err == nil {
		t.Error("SweepPoints accepted a point the simulator cannot build")
	}
}

func knobsOf(set []setting) []string {
	names := make([]string, len(set))
	for i, st := range set {
		names[i] = st.knob
	}
	return names
}

// TestSuite pins the evaluator every exhibit stands on: [point][bench]
// order, the values Run returns, all-or-nothing on an error, and one
// simulation per distinct point however many Suite calls overlap.
func TestSuite(t *testing.T) {
	benches := []string{"Filter", "Short"}
	conv, dws := DefaultKnobs(wpu.SchemeConv), DefaultKnobs(wpu.SchemeRevive)
	slow := conv
	slow.L2Lat = 100

	s := NewSession(WithJobs(2))
	// Two overlapping calls share the Conv points.
	var wg sync.WaitGroup
	var a, b [][]*Result
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); a, errA = s.Suite(benches, conv, dws) }()
	go func() { defer wg.Done(); b, errB = s.Suite(benches, slow, conv) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if got := s.Stats().Misses; got != 6 {
		t.Errorf("%d simulations for 6 distinct points", got)
	}
	for p, k := range []Knobs{conv, dws} {
		if len(a) != 2 || len(a[p]) != len(benches) {
			t.Fatalf("Suite returned %d points of %d benchmarks, want 2 of %d", len(a), len(a[p]), len(benches))
		}
		for i, bench := range benches {
			want, err := s.Run(bench, k)
			if err != nil {
				t.Fatal(err)
			}
			if a[p][i].Bench != bench || a[p][i].Scheme != k.Scheme {
				t.Errorf("a[%d][%d] is %s/%s, want %s/%s", p, i, a[p][i].Bench, a[p][i].Scheme, bench, k.Scheme)
			}
			if !reflect.DeepEqual(*a[p][i], want) {
				t.Errorf("a[%d][%d] differs from Run(%s, %s)", p, i, bench, k.Scheme)
			}
		}
	}
	for i := range benches {
		if a[0][i] != b[1][i] {
			t.Errorf("the two calls hold different cache slots for %s under Conv", benches[i])
		}
		if b[0][i].Cycles <= b[1][i].Cycles {
			t.Errorf("%s: l2lat 100 took %d cycles, l2lat 30 took %d", benches[i], b[0][i].Cycles, b[1][i].Cycles)
		}
	}

	res, err := s.Suite([]string{"Filter", "Nope"}, conv)
	if err == nil || res != nil {
		t.Errorf("Suite with an unknown benchmark returned %v, %v; want nil and an error", res, err)
	}
	if res, err := s.Suite(benches); err != nil || len(res) != 0 {
		t.Errorf("Suite of no points returned %v, %v", res, err)
	}
}
