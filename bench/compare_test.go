package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 110, 100, 125, 85, 105}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same runs", lower, steady, steady, unchanged},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), unchanged},
		{"20% slower", lower, steady, scale(steady, 1.20), regressed},
		{"20% faster", lower, steady, scale(steady, 0.80), improved},
		{"throughput down 20%", higher, steady, scale(steady, 0.80), regressed},
		{"throughput up 20%", higher, steady, scale(steady, 1.20), improved},
		{"noisy and interleaved", lower, noisy, scale(noisy, 1.15), unresolved},
		{"noisy but every run worse", lower, noisy, scale(noisy, 2), regressed},
		{"noisy but every run better", lower, noisy, scale(noisy, 0.5), improved},
		{"single runs, worse", lower, []float64{100}, []float64{125}, regressed},
		{"single runs, better: too few pairs to claim", lower, []float64{100}, []float64{90}, unchanged},
		{"a gain inside the base's own spread", lower, []float64{98, 100, 102, 99, 101}, []float64{96, 98, 100, 97, 99}, unchanged},
	} {
		if got, _ := judge(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, p50, failed float64, digest string) string {
		var f resultFile
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, runRecord{Workloads: []workloadResult{{
				Workload: "core_mem", Attempted: 100, Failed: int(failed), SimDigest: digest,
				Metrics: map[string]measured{
					"op_p50_ms":      {Value: p50 + float64(i)*0.01, Unit: "ms"},
					"allocs_per_sim": {Value: 7000, Unit: "count"},
					"sim.run_ms":     {Value: 5 * p50, Unit: "ms"}, // not gated: no row
				},
			}}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := file("a.json", 10, 0, "d1")
	var out bytes.Buffer
	if bad, err := compareFiles(&out, a, file("same.json", 10.2, 0, "d1")); err != nil || bad {
		t.Errorf("agreeing files: regressed=%v err=%v\n%s", bad, err, out.String())
	}
	if strings.Contains(out.String(), "sim.run_ms") || !strings.Contains(out.String(), "allocs_per_sim") {
		t.Errorf("rows must be the gated metrics only:\n%s", out.String())
	}
	out.Reset()
	if bad, _ := compareFiles(&out, a, file("slow.json", 13, 0, "d2")); !bad ||
		!strings.Contains(out.String(), regressed) || !strings.Contains(out.String(), "sim_digest d1 -> d2") {
		t.Errorf("a 30%% slower file must regress and the digest change must be listed:\n%s", out.String())
	}
	out.Reset()
	if bad, _ := compareFiles(&out, a, file("fails.json", 10, 2, "d1")); !bad || !strings.Contains(out.String(), "failed share") {
		t.Errorf("a higher failed share must regress:\n%s", out.String())
	}
}
