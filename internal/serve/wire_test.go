package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// TestWireDefaultsMatchTable3: an empty knob vector on the wire is the
// Table 3 machine DefaultKnobs returns and the CLIs build, field for field.
func TestWireDefaultsMatchTable3(t *testing.T) {
	if got, want := (WireKnobs{}).Knobs(), report.DefaultKnobs(""); got != want {
		t.Errorf("empty WireKnobs expands to %#v, want the Table 3 defaults %#v", got, want)
	}
}

// TestMinimalJobSharesTheCLIKey: a job that names only a scheme is the
// point DefaultKnobs names, under the same result key, and is served from
// a store that dwsreport (which runs DefaultKnobs points) wrote.
func TestMinimalJobSharesTheCLIKey(t *testing.T) {
	req, derr := DecodeJobRequest(strings.NewReader(
		`{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`))
	if derr != nil {
		t.Fatal(derr)
	}
	k := report.DefaultKnobs(wpu.SchemeRevive)
	pt := req.Points()[0]
	if pt.Knobs != k {
		t.Fatalf("minimal job decodes to %#v, want DefaultKnobs %#v", pt.Knobs, k)
	}
	if got, want := ResultKey(pt.Bench, pt.Knobs), ResultKey("Filter", k); got != want {
		t.Fatalf("result key %s, want %s", got, want)
	}

	dir := t.TempDir()
	st, err := report.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report.NewSession(report.WithStore(st)).Run("Filter", k); err != nil {
		t.Fatal(err)
	}
	st2, err := report.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := report.NewSession(report.WithStore(st2))
	if _, err := s.Run(pt.Bench, pt.Knobs); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats(); c.Misses != 0 || c.DiskHits != 1 {
		t.Errorf("job re-simulated a stored point: %+v", c)
	}
}

// TestResultKnobsPostBack: the knobs object of a result document, posted
// as a job's knobs, names the point the result is for.
func TestResultKnobsPostBack(t *testing.T) {
	k := report.DefaultKnobs(wpu.SchemeRevive)
	k.Dist, k.Slots, k.L2Lat, k.Scale, k.BranchThresh = sim.DistInterleave, 6, 100, 2, 3
	var doc struct {
		Bench string          `json:"bench"`
		Knobs json.RawMessage `json:"knobs"`
	}
	if err := json.Unmarshal(RenderResultDoc(report.Result{Bench: "Filter", Scheme: k.Scheme}, k), &doc); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"schema_version":1,"bench":%q,"knobs":%s}`, doc.Bench, doc.Knobs)
	req, derr := DecodeJobRequest(strings.NewReader(body))
	if derr != nil {
		t.Fatalf("%s: %s", body, derr.Msg)
	}
	if got := req.Points()[0]; got.Bench != "Filter" || got.Knobs != k {
		t.Errorf("posted back %s\n got %#v\nwant %#v", doc.Knobs, got.Knobs, k)
	}
}

func TestDecodeJobRequest(t *testing.T) {
	valid := `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`
	cases := []struct {
		name   string
		body   string
		status int // 0 = accept
	}{
		{"minimal run", valid, 0},
		{"explicit kind", `{"schema_version":1,"kind":"run","bench":"Merge","knobs":{"scheme":"Conv"}}`, 0},
		{"sweep", `{"schema_version":1,"kind":"sweep","benches":["Filter","Merge"],"schemes":["Conv","DWS.ReviveSplit"]}`, 0},
		{"traced run", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"trace":true,"trace_every":500}`, 0},

		{"empty body", ``, http.StatusBadRequest},
		{"not json", `{"schema_version":`, http.StatusBadRequest},
		{"wrong type", `[1,2,3]`, http.StatusBadRequest},
		{"unknown field", `{"schema_version":1,"bench":"Filter","nobs":{}}`, http.StatusBadRequest},
		{"removed knob no_mem_hints", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","no_mem_hints":true}}`, http.StatusBadRequest},
		{"trailing data", valid + `{"again":true}`, http.StatusBadRequest},
		{"missing schema version", `{"bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"future schema version", `{"schema_version":2,"bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"unknown bench", `{"schema_version":1,"bench":"Nope","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"missing scheme", `{"schema_version":1,"bench":"Filter","knobs":{}}`, http.StatusBadRequest},
		{"unknown scheme", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.Nope"}}`, http.StatusBadRequest},
		{"unknown kind", `{"schema_version":1,"kind":"walk","bench":"Filter","knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"run with sweep fields", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"schemes":["Conv"]}`, http.StatusBadRequest},
		{"sweep with bench", `{"schema_version":1,"kind":"sweep","bench":"Filter","benches":["Merge"],"schemes":["Conv"]}`, http.StatusBadRequest},
		{"sweep with knob scheme", `{"schema_version":1,"kind":"sweep","benches":["Merge"],"schemes":["Conv"],"knobs":{"scheme":"Conv"}}`, http.StatusBadRequest},
		{"sweep missing schemes", `{"schema_version":1,"kind":"sweep","benches":["Merge"]}`, http.StatusBadRequest},
		{"traced sweep", `{"schema_version":1,"kind":"sweep","benches":["Merge"],"schemes":["Conv"],"trace":true}`, http.StatusBadRequest},
		{"trace_every without trace", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"},"trace_every":500}`, http.StatusBadRequest},
		{"knob out of range", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","wpus":65}}`, http.StatusBadRequest},
		{"negative knob", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","l1kb":-1}}`, http.StatusBadRequest},
		{"slots past the ready mask", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","slots":65}}`, http.StatusBadRequest},
		{"default slots past the ready mask", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","warps":33}}`, http.StatusBadRequest},
		{"many warps, explicit slots", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","warps":33,"slots":64}}`, 0},
		{"bad dist", `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv","dist":"diagonal"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeJobRequest(strings.NewReader(tc.body))
			if tc.status == 0 {
				if err != nil {
					t.Fatalf("want accept, got %d: %s", err.Status, err.Msg)
				}
				if n := len(req.Points()); n == 0 {
					t.Fatal("accepted request expands to zero points")
				}
				return
			}
			if err == nil {
				t.Fatalf("want rejection with status %d, got accept: %#v", tc.status, req)
			}
			if err.Status != tc.status {
				t.Fatalf("want status %d, got %d (%s)", tc.status, err.Status, err.Msg)
			}
		})
	}
}

// TestSweepPointOrder pins the deterministic benches-outer × schemes-inner
// expansion order the job document presents.
func TestSweepPointOrder(t *testing.T) {
	req, derr := DecodeJobRequest(strings.NewReader(
		`{"schema_version":1,"kind":"sweep","benches":["Filter","Merge"],"schemes":["Conv","Slip"]}`))
	if derr != nil {
		t.Fatal(derr)
	}
	pts := req.Points()
	var got []string
	for _, p := range pts {
		got = append(got, p.Bench+"/"+string(p.Knobs.Scheme))
	}
	want := []string{"Filter/Conv", "Filter/Slip", "Merge/Conv", "Merge/Slip"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep order %v, want %v", got, want)
	}
}

// TestResultKeyStable pins the result-key derivation: content-addressed,
// stable across processes and builds, and sensitive to every knob (via the
// session cache key it digests). A result key is a wire address clients may
// keep across daemon restarts, so two are pinned as literals.
func TestResultKeyStable(t *testing.T) {
	for _, c := range []struct {
		bench, scheme, want string
	}{
		{"Filter", "Conv", "8aa627867723f804d1e683173c418dfe"},
		{"KMeans", "DWS.ReviveSplit", "a029cb7902b8995097fb2fb1c98d98a6"},
	} {
		if got := ResultKey(c.bench, report.DefaultKnobs(wpu.Scheme(c.scheme))); got != c.want {
			t.Errorf("ResultKey(%s, %s) = %s, want %s", c.bench, c.scheme, got, c.want)
		}
	}
	k := report.DefaultKnobs("Conv")
	a, b := ResultKey("Filter", k), ResultKey("Filter", k)
	if a != b {
		t.Fatalf("ResultKey not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("ResultKey %q: want 32 hex digits", a)
	}
	k2 := k
	k2.L1KB++
	if ResultKey("Filter", k2) == a {
		t.Error("ResultKey ignores L1KB")
	}
	if ResultKey("Merge", k) == a {
		t.Error("ResultKey ignores the benchmark")
	}
}
