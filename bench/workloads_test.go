package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The seed decides the order in which points and jobs run and nothing else.
func TestSeedDeterminesOrder(t *testing.T) {
	perms := func(seed int64) [][]int {
		r := newRun(runConfig{Seed: seed}, "core_mem", "")
		return [][]int{r.rng.Perm(8), r.rng.Perm(8), r.rng.Perm(48)}
	}
	if !reflect.DeepEqual(perms(7), perms(7)) {
		t.Error("the same seed gave two orders")
	}
	if reflect.DeepEqual(perms(7), perms(8)) {
		t.Error("two seeds gave the same order")
	}
}

// BENCHMARK.json at the repository root repeats the vocabulary of
// metrics.go; this keeps the two in step.
func TestBenchmarkJSONMatchesVocabulary(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ from metrics.go:\n%+v", doc.Workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v", doc.EndToEnd)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, metrics.go has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, got, d)
		}
	}

	// The limits the acceptance driver enforces before a single run.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("metric %q (unit %q) breaks the naming limits or repeats", n, u)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Error("list sizes outside the contract")
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || workloadFuncs[w.Name] == nil {
			t.Errorf("workload %q: bad name, why over 200 characters, or no implementation", w.Name)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// The request bodies are data: 48 untraced points and the 24 DWS points
// again with tracing on, each with the minimal fields only.
func TestJobBodies(t *testing.T) {
	var plain, traced int
	for _, b := range jobBodies() {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(b.Body, &fields); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for k := range fields {
			switch k {
			case "schema_version", "bench", "knobs", "trace":
			default:
				t.Errorf("%s: field %q is not one of the minimal fields", b.Name, k)
			}
		}
		if b.Trace {
			traced++
			if !b.DWS {
				t.Errorf("%s: only DWS points are traced", b.Name)
			}
		} else {
			plain++
		}
	}
	if plain != 48 || traced != 24 {
		t.Errorf("%d untraced and %d traced bodies, want 48 and 24", plain, traced)
	}
}
