package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload once in smoke mode, untraced, and the
// cheapest one traced: the benchmark end to end, daemon included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once; skipped with -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		trace bool
	}{{"core_mem", false}, {"core_issue", false}, {"core_long", false},
		{"report_cold", false}, {"report_warm", false}, {"serve_jobs", false}, {"core_mem", true}} {
		cfg := runConfig{Root: root, Seed: 1, Seconds: 0, Smoke: true, Trace: c.trace}
		r := newRun(cfg, c.name, t.TempDir())
		start := time.Now()
		if err := workloadFuncs[c.name](r); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := r.result(time.Since(start))
		if !res.Correct || res.SimDigest == "" {
			t.Errorf("%s (trace %v): %d of %d ops failed: %v", c.name, c.trace, res.Failed, res.Attempted, res.Failures)
		}
		if c.trace && (res.Metrics["sim.op_child_coverage"].Value < 0.97 || res.Metrics["engine.ns_per_event"].Value <= 0) {
			t.Errorf("traced %s: coverage %v, engine probe %v", c.name,
				res.Metrics["sim.op_child_coverage"].Value, res.Metrics["engine.ns_per_event"].Value)
		}
		t.Logf("%s (trace %v): %d ops in %.1f s", c.name, c.trace, res.Attempted, res.WallS)
	}
}
