package sim

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/program"
)

// runLiveKernel executes a small kernel with a Live publisher attached and
// finalised. The kernel ends before the first periodic refresh, so the
// snapshot is the one Attach's finish publishes.
func runLiveKernel(t *testing.T) *Live {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WPUs = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lv := NewLive()
	lv.SetMeta("nop", "Conv")
	finish := lv.Attach(sys)
	b := program.NewBuilder("nop")
	b.Nop()
	b.Nop()
	b.Halt()
	if _, err := sys.RunKernel(b.MustBuild(), Threads(16, nil)); err != nil {
		t.Fatal(err)
	}
	finish()
	return lv
}

func TestLiveSnapshotAndInvariant(t *testing.T) {
	lv := runLiveKernel(t)
	snap := lv.Snapshot()
	if !snap.Done {
		t.Fatal("Attach's finish did not mark the snapshot done")
	}
	if snap.Bench != "nop" || snap.Scheme != "Conv" {
		t.Fatalf("meta = %q/%q", snap.Bench, snap.Scheme)
	}
	if snap.Total.Cycles() == 0 {
		t.Fatal("snapshot has no cycles")
	}
	if snap.Total.StallSum() != snap.Total.Cycles() {
		t.Fatalf("taxonomy sum %d != cycles %d", snap.Total.StallSum(), snap.Total.Cycles())
	}
	if len(snap.WPUs) != 1 || len(snap.L1Outstanding) != 1 {
		t.Fatalf("per-WPU slices sized %d/%d, want 1/1", len(snap.WPUs), len(snap.L1Outstanding))
	}
}

func TestLiveJSONEndpoint(t *testing.T) {
	lv := runLiveKernel(t)
	rec := httptest.NewRecorder()
	lv.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap LiveSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Total.StallSum() != snap.Total.Cycles() {
		t.Fatalf("served taxonomy sum %d != cycles %d", snap.Total.StallSum(), snap.Total.Cycles())
	}
}

func TestLivePrometheusEndpoint(t *testing.T) {
	lv := runLiveKernel(t)
	rec := httptest.NewRecorder()
	lv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
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
