package sim

import (
	"strings"
	"testing"

	"repro/internal/program"
)

// runLiveKernel executes a small kernel on a machine of cfg with a Live
// publisher attached and finalised, and returns both. The kernel ends before
// the first periodic refresh, so the snapshot is the one Attach's finish
// publishes.
func runLiveKernel(t *testing.T, cfg Config) (*Live, *System) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv := new(Live)
	finish := lv.Attach(sys, "nop", "Conv")
	b := program.NewBuilder("nop")
	b.Nop()
	b.Nop()
	b.Halt()
	if _, err := sys.RunKernel(b.MustBuild(), Threads(16, nil)); err != nil {
		t.Fatal(err)
	}
	finish()
	return lv, sys
}

func oneWPU() Config {
	cfg := DefaultConfig()
	cfg.WPUs = 1
	return cfg
}

func TestLiveSnapshotAndInvariant(t *testing.T) {
	lv, _ := runLiveKernel(t, oneWPU())
	snap := lv.snapshot()
	if !snap.Done {
		t.Fatal("Attach's finish did not mark the snapshot done")
	}
	if snap.Bench != "nop" || snap.Scheme != "Conv" {
		t.Fatalf("labels = %q/%q", snap.Bench, snap.Scheme)
	}
	if snap.WPUCycles == 0 {
		t.Fatal("snapshot has no cycles")
	}
	if sum := bucketSum(snap); sum != snap.WPUCycles {
		t.Fatalf("taxonomy sum %d != cycles %d", sum, snap.WPUCycles)
	}
}

func bucketSum(s liveSnapshot) (sum uint64) {
	for _, v := range s.Buckets {
		sum += v
	}
	return sum
}

// TestLiveRefreshAllocFree: a refresh copies counters into the snapshot by
// value, so on a Table 3 machine that has run it allocates nothing.
func TestLiveRefreshAllocFree(t *testing.T) {
	lv, sys := runLiveKernel(t, DefaultConfig())
	if allocs := testing.AllocsPerRun(100, func() { lv.capture(sys, "nop", "Conv", sys.Cycles(), false) }); allocs != 0 {
		t.Errorf("one refresh: %.0f allocs, want 0", allocs)
	}
}

func TestLivePrometheusEndpoint(t *testing.T) {
	lv, _ := runLiveKernel(t, oneWPU())
	var b strings.Builder
	lv.WriteMetrics(&b)
	body := b.String()
	for _, want := range []string{
		`dwsim_cycles_total{bench="nop",scheme="Conv"} `,
		`dwsim_cycle_bucket_total{bench="nop",scheme="Conv",cause="busy"} `,
		`dwsim_cycle_bucket_total{bench="nop",scheme="Conv",cause="mem_divergent"} `,
		`dwsim_run_done{bench="nop",scheme="Conv"} 1`,
		"# TYPE dwsim_cycle_bucket_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Every exposition line must be a comment or `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestLiveUnlabelledBeforeFirstRefresh: a publisher no run has refreshed
// prints every series without labels, at zero.
func TestLiveUnlabelledBeforeFirstRefresh(t *testing.T) {
	var b strings.Builder
	new(Live).WriteMetrics(&b)
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "bench=") || !strings.HasSuffix(line, " 0") {
			t.Errorf("unrefreshed exposition line %q", line)
		}
	}
}
