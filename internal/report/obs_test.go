package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/wpu"
)

// traceFilter runs the cheapest benchmark with a sink attached and
// returns the filled trace plus the Result.
func traceFilter(t *testing.T, opts ...Option) (*obs.Trace, Result) {
	t.Helper()
	s := NewSession(opts...)
	tr := obs.New(1000)
	r, err := s.RunTraced("Filter", DefaultKnobs(wpu.Scheme("DWS.ReviveSplit")), tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, r
}

// TestTracedRunProducesEvents pins that the instrumented machine actually
// reports the paper's mechanisms: a DWS run of a divergent benchmark must
// record subdivisions and cache misses, and the sampler must have fired.
func TestTracedRunProducesEvents(t *testing.T) {
	tr, r := traceFilter(t)
	if len(tr.Events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	counts := tr.CountByKind()
	if counts["mem-subdiv"] == 0 && counts["branch-subdiv"] == 0 {
		t.Errorf("no subdivision events under DWS; counts = %v", counts)
	}
	if counts["l1-miss"] == 0 {
		t.Errorf("no L1 miss events; counts = %v", counts)
	}
	// A revival is itself a memory subdivision (tryRevive bumps both
	// counters), so the event kinds partition MemSubdivisions.
	if got, want := counts["mem-subdiv"]+counts["revive"], r.Stats.MemSubdivisions; got != want {
		t.Errorf("mem-subdiv+revive events = %d, Stats.MemSubdivisions = %d", got, want)
	}
	if got, want := counts["revive"], r.Stats.Revivals; got != want {
		t.Errorf("revive events = %d, Stats.Revivals = %d", got, want)
	}
	if got, want := counts["l2-miss"], r.L2.Misses; got != want {
		t.Errorf("l2-miss events = %d, L2Stats.Misses = %d", got, want)
	}
	if len(tr.Samples) == 0 {
		t.Fatal("sampler produced no timeline rows")
	}
	for _, e := range tr.Events {
		if e.Cycle > r.Cycles {
			t.Fatalf("event at cycle %d beyond run end %d", e.Cycle, r.Cycles)
		}
	}
}

// TestTracedRunBypassesStore is the cache-interplay guarantee: with a warm
// on-disk store (and even a warm in-memory cache), RunTraced must still
// simulate live — a cache hit would return a Result but leave the trace
// empty.
func TestTracedRunBypassesStore(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := DefaultKnobs(wpu.Scheme("DWS.ReviveSplit"))
	s := NewSession(WithStore(st))
	warm, err := s.Run("Filter", k)
	if err != nil {
		t.Fatal(err)
	}

	// Same session: in-memory cache is warm.
	tr := obs.New(0)
	r, err := s.RunTraced("Filter", k, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("warm in-memory cache swallowed the traced run")
	}
	if r.Cycles != warm.Cycles {
		t.Errorf("traced run cycles %d != cached %d", r.Cycles, warm.Cycles)
	}
	if got := s.Stats(); got.Traced != 1 {
		t.Errorf("Traced counter = %d, want 1; stats %+v", got.Traced, got)
	}

	// Fresh session sharing the store: disk is warm.
	s2 := NewSession(WithStore(st))
	tr2 := obs.New(0)
	if _, err := s2.RunTraced("Filter", k, tr2); err != nil {
		t.Fatal(err)
	}
	if len(tr2.Events) == 0 {
		t.Fatal("warm disk store swallowed the traced run")
	}
	if got := s2.Stats(); got.DiskHits != 0 || got.Misses != 1 {
		t.Errorf("traced run consulted the store: %+v", got)
	}
	// And the traced run warmed both caches for untraced use.
	if _, err := s2.Run("Filter", k); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.MemHits != 1 {
		t.Errorf("traced result not cached for untraced reuse: %+v", got)
	}
	if s2.Provenance("Filter", k) != "traced-live" {
		t.Errorf("provenance = %q, want traced-live", s2.Provenance("Filter", k))
	}
}

// TestTraceDeterminismAcrossJobs is the byte-determinism guarantee for
// every observability export: identical runs at -j 1 and -j 8 must
// produce byte-identical Chrome traces, timeline CSVs, and (wall-clock
// zeroed) run documents.
func TestTraceDeterminismAcrossJobs(t *testing.T) {
	render := func(jobs int) (chrome, timeline, doc []byte) {
		tr, r := traceFilter(t, WithJobs(jobs))
		var cb, tb, db bytes.Buffer
		if err := obs.WriteChromeTrace(&cb, tr); err != nil {
			t.Fatal(err)
		}
		if err := TimelineCSV(&tb, tr); err != nil {
			t.Fatal(err)
		}
		rd := NewRunDoc(r, DefaultKnobs(wpu.Scheme("DWS.ReviveSplit")), "traced-live", 0)
		if err := WriteStatsDoc(&db, []RunDoc{rd}, CacheStats{}); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), tb.Bytes(), db.Bytes()
	}
	c1, t1, d1 := render(1)
	c8, t8, d8 := render(8)
	if !bytes.Equal(c1, c8) {
		t.Error("chrome trace differs between -j 1 and -j 8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("timeline CSV differs between -j 1 and -j 8")
	}
	if !bytes.Equal(d1, d8) {
		t.Error("run document differs between -j 1 and -j 8")
	}
}

// TestObsDoesNotPerturbTiming: attaching the sink must not change the
// simulation itself — same cycles, same counters.
func TestObsDoesNotPerturbTiming(t *testing.T) {
	k := DefaultKnobs(wpu.Scheme("DWS.ReviveSplit"))
	plain, err := NewSession().Run("Filter", k)
	if err != nil {
		t.Fatal(err)
	}
	_, traced := traceFilter(t)
	if plain.Cycles != traced.Cycles {
		t.Errorf("attaching the trace changed cycles: %d != %d", plain.Cycles, traced.Cycles)
	}
	if !reflect.DeepEqual(plain.Stats, traced.Stats) {
		t.Errorf("attaching the trace changed statistics:\nplain  %+v\ntraced %+v", plain.Stats, traced.Stats)
	}
}

// TestTimelineCSVShape parses the export with encoding/csv and checks the
// schema-stable header plus basic row invariants.
func TestTimelineCSVShape(t *testing.T) {
	tr, _ := traceFilter(t)
	var buf bytes.Buffer
	if err := TimelineCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not parse: %v", err)
	}
	wantHeader := "cycle,wpu,busy_frac,memstall_frac,otherstall_frac,mean_simd_width," +
		"wst_occupancy,resident_splits,slot_waiters,l1_mshr,l2_mshr"
	if got := strings.Join(recs[0], ","); got != wantHeader {
		t.Fatalf("timeline header drifted:\ngot  %s\nwant %s", got, wantHeader)
	}
	if len(recs) != len(tr.Samples)+1 {
		t.Errorf("timeline rows = %d, want %d samples + header", len(recs), len(tr.Samples))
	}
	for _, rec := range recs[1:] {
		if len(rec) != len(recs[0]) {
			t.Fatalf("ragged row: %v", rec)
		}
	}
}

// TestRunDocShape pins the machine-readable stats document: schema tags,
// knob round-trip, and the derived ratios agreeing with the raw counters.
func TestRunDocShape(t *testing.T) {
	k := DefaultKnobs(wpu.Scheme("DWS.ReviveSplit"))
	s := NewSession()
	r, err := s.Run("Filter", k)
	if err != nil {
		t.Fatal(err)
	}
	doc := NewRunDoc(r, k, s.Provenance("Filter", k), 1.5)
	if doc.Schema != RunDocSchema || doc.Source != "simulated" {
		t.Errorf("doc schema/source = %q/%q", doc.Schema, doc.Source)
	}
	var buf bytes.Buffer
	if err := WriteStatsDoc(&buf, []RunDoc{doc}, s.Stats()); err != nil {
		t.Fatal(err)
	}
	var parsed StatsDoc
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("stats doc does not parse: %v", err)
	}
	if parsed.Schema != StatsDocSchema || len(parsed.Runs) != 1 {
		t.Fatalf("parsed doc: schema %q, %d runs", parsed.Schema, len(parsed.Runs))
	}
	got := parsed.Runs[0]
	if got.Knobs != k {
		t.Errorf("knobs did not round-trip: %+v != %+v", got.Knobs, k)
	}
	if got.Cycles != r.Cycles || got.WPU.Issued != r.Stats.Issued {
		t.Errorf("counters did not round-trip")
	}
	if got.Derived.MeanSIMDWidth != r.Stats.MeanSIMDWidth() {
		t.Errorf("derived mean width %v != %v", got.Derived.MeanSIMDWidth, r.Stats.MeanSIMDWidth())
	}
	if parsed.Cache.Misses != 1 {
		t.Errorf("session cache in doc: %+v", parsed.Cache)
	}
}
