package report

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// eachKnobMutation calls fn once per Knobs field with the Table 3 vector
// and a copy differing in that field alone, found by reflection. A field
// of a kind it cannot mutate fails the test, forcing it (and the key) to
// be taught about the new kind.
func eachKnobMutation(t *testing.T, fn func(field string, base, mutated Knobs)) {
	t.Helper()
	base := DefaultKnobs(wpu.SchemeConv)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		mutated := base
		f := reflect.ValueOf(&mutated).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 1)
		default:
			t.Fatalf("Knobs.%s has kind %s: teach eachKnobMutation to mutate it "+
				"and make sure Knobs.key renders it deterministically", rt.Field(i).Name, f.Kind())
		}
		fn(rt.Field(i).Name, base, mutated)
	}
}

// TestKnobKeyCoversAllFields mutates every Knobs field through reflection
// and requires the string key — the store's file name and the daemon's
// result address — to change: adding a knob that the key does not
// distinguish fails here.
func TestKnobKeyCoversAllFields(t *testing.T) {
	eachKnobMutation(t, func(field string, base, mutated Knobs) {
		if mutated.key("FFT") == base.key("FFT") {
			t.Errorf("mutating Knobs.%s does not change the cache key", field)
		}
	})
}

// TestKnobsAreDistinctCachePoints is the same walk for the session cache,
// which is keyed by the point itself: two vectors differing in any single
// field occupy two slots, and Provenance finds each under its own.
func TestKnobsAreDistinctCachePoints(t *testing.T) {
	eachKnobMutation(t, func(field string, base, mutated Knobs) {
		s := NewSession()
		for k, source := range map[Knobs]string{base: "base", mutated: "mutated"} {
			c := &inflight{done: make(chan struct{}), source: source}
			close(c.done)
			s.cache[Job{"FFT", k}] = c
		}
		if len(s.cache) != 2 {
			t.Fatalf("mutating Knobs.%s does not open a second cache slot", field)
		}
		if got := s.Provenance("FFT", base); got != "base" {
			t.Errorf("Knobs.%s: Provenance(base) = %q", field, got)
		}
		if got := s.Provenance("FFT", mutated); got != "mutated" {
			t.Errorf("Knobs.%s: Provenance(mutated) = %q", field, got)
		}
		if got := s.Provenance("LU", base); got != "" {
			t.Errorf("Knobs.%s: another benchmark shares the slot (%q)", field, got)
		}
	})
}

// TestConcurrentSessionSingleflight hammers one Session from many
// goroutines (run under -race in CI): all callers of one point must share
// a single simulation, and results must be identical.
func TestConcurrentSessionSingleflight(t *testing.T) {
	s := NewSession()
	knobs := []Knobs{
		DefaultKnobs(wpu.SchemeConv),
		DefaultKnobs(wpu.SchemeRevive),
	}
	const callersPerKey = 8
	results := make([]Result, len(knobs)*callersPerKey)
	var wg sync.WaitGroup
	for ki, k := range knobs {
		for c := 0; c < callersPerKey; c++ {
			wg.Add(1)
			go func(slot int, k Knobs) {
				defer wg.Done()
				r, err := s.Run("Filter", k)
				if err != nil {
					t.Error(err)
					return
				}
				results[slot] = r
			}(ki*callersPerKey+c, k)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for ki := range knobs {
		for c := 1; c < callersPerKey; c++ {
			a, b := results[ki*callersPerKey], results[ki*callersPerKey+c]
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("concurrent callers of one point got different results: %+v vs %+v", a, b)
			}
		}
	}
	st := s.Stats()
	if st.Misses != uint64(len(knobs)) {
		t.Errorf("ran %d simulations for %d distinct points (singleflight broken?)", st.Misses, len(knobs))
	}
	if want := uint64(len(knobs) * (callersPerKey - 1)); st.MemHits != want {
		t.Errorf("mem hits = %d, want %d", st.MemHits, want)
	}
}

func TestPrefetchPropagatesError(t *testing.T) {
	s := NewSession(WithJobs(4))
	jobs := []Job{{Bench: "NoSuchBench", Knobs: DefaultKnobs(wpu.SchemeConv)}}
	if err := s.Prefetch(jobs); err == nil {
		t.Fatal("Prefetch ignored an unknown benchmark")
	}
	if err := s.Prefetch(nil); err != nil {
		t.Fatalf("empty Prefetch: %v", err)
	}
}

// TestRunPanicIsNotMemoized panics a run through the machine hook, directly
// and on a Prefetch worker: the panic reaches the caller's goroutine both
// times, and the point it was computing is dropped rather than left in
// flight, so the next Run of it simulates instead of blocking forever.
func TestRunPanicIsNotMemoized(t *testing.T) {
	s := NewSession(WithJobs(2))
	s.OnSystem = func(*sim.System) func() { panic("injected") }
	k := DefaultKnobs(wpu.SchemeConv)
	panics := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	if v := panics(func() { s.Run("Filter", k) }); v != "injected" { //nolint:errcheck // it panics
		t.Errorf("Run recovered %v, want the injected panic", v)
	}
	jobs := []Job{{Bench: "Filter", Knobs: k}, {Bench: "Filter", Knobs: DefaultKnobs(wpu.SchemeRevive)}}
	v := panics(func() { s.Prefetch(jobs) }) //nolint:errcheck // it panics
	if msg, _ := v.(string); !strings.HasPrefix(msg, "injected\n") || !strings.Contains(msg, "goroutine") {
		t.Errorf("Prefetch recovered %v, want the injected panic and its stack", v)
	}
	s.OnSystem = nil
	if err := s.Prefetch(jobs); err != nil {
		t.Fatalf("rerun of the points that panicked: %v", err)
	}
}

// TestStoreRoundTrip unit-tests the on-disk store without running any
// simulation: save/load fidelity, key checking, and salt isolation.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := Result{Bench: "FFT", Scheme: wpu.SchemeRevive, Cycles: 123456789}
	r.Stats.Issued = 42
	r.Stats.ThreadMisses = [][]uint64{{1, 2}, {3, 4}}
	r.Energy.DRAM = 0.125
	key := DefaultKnobs(wpu.SchemeRevive).key("FFT")
	if _, ok := st.Load(key); ok {
		t.Fatal("empty store claims a hit")
	}
	if err := st.Save(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Load(key)
	if !ok {
		t.Fatal("saved record not found")
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mutated the result:\n got %+v\nwant %+v", got, r)
	}
	if _, ok := st.Load(key + "x"); ok {
		t.Fatal("different key hit the same record")
	}
	// A store opened under a different program version must not see it.
	other, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other.salt = "different-version"
	if _, ok := other.Load(key); ok {
		t.Fatal("record reused across version salts")
	}
}

// renderTable1 runs Table1 on a fresh session and returns the rendered
// text and structured rows.
func renderTable1(t *testing.T, opts ...Option) (string, []Table1Row, CacheStats) {
	t.Helper()
	s := NewSession(opts...)
	var buf bytes.Buffer
	rows, err := s.Table1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), rows, s.Stats()
}

// TestParallelDeterminism is the -j determinism guarantee: one exhibit
// rendered at -j 1 and -j 8 must produce identical bytes and identical
// structured results.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	text1, rows1, st1 := renderTable1(t, WithJobs(1))
	text8, rows8, _ := renderTable1(t, WithJobs(8))
	if text1 != text8 {
		t.Errorf("rendered text differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", text1, text8)
	}
	if !reflect.DeepEqual(rows1, rows8) {
		t.Errorf("structured rows differ between -j 1 and -j 8")
	}
	if st1.Misses == 0 || strings.TrimSpace(text1) == "" {
		t.Fatalf("degenerate exhibit run (misses=%d)", st1.Misses)
	}
}

// TestDiskStoreWarmRun re-renders an exhibit against a warm on-disk
// store: the second session must simulate nothing and still produce
// byte-identical output.
func TestDiskStoreWarmRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	textCold, rowsCold, cold := renderTable1(t, WithJobs(4), WithStore(st))
	if cold.Misses == 0 || cold.DiskHits != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	textWarm, rowsWarm, warm := renderTable1(t, WithJobs(4), WithStore(st))
	if warm.Misses != 0 {
		t.Errorf("warm run re-simulated %d points", warm.Misses)
	}
	if warm.DiskHits != cold.Misses {
		t.Errorf("warm run loaded %d records, want %d", warm.DiskHits, cold.Misses)
	}
	if textCold != textWarm {
		t.Errorf("rendered text differs across the warm store:\n--- cold ---\n%s--- warm ---\n%s", textCold, textWarm)
	}
	if !reflect.DeepEqual(rowsCold, rowsWarm) {
		t.Errorf("structured rows differ across the warm store")
	}
}

// TestPrefetchOnlyWarmsCache checks the fan-out/render split end to end:
// after Prefetch, rendering must be pure cache reads.
func TestPrefetchOnlyWarmsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(WithJobs(4))
	if _, err := s.Suite(BenchNames(), DefaultKnobs(wpu.SchemeConv)); err != nil {
		t.Fatal(err)
	}
	sims := s.Stats().Misses
	if _, err := s.Table1(new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Misses; got != sims {
		t.Errorf("rendering after Prefetch ran %d extra simulations", got-sims)
	}
}

// Example documenting the key format is deliberately absent: the key is
// an internal detail. This sanity check just pins that it stays
// human-greppable (bench prefix) for store debugging.
func TestKeyHasBenchPrefix(t *testing.T) {
	k := DefaultKnobs(wpu.SchemeConv)
	if !strings.HasPrefix(k.key("FFT"), "FFT|") {
		t.Fatalf("key lost its bench prefix: %s", k.key("FFT"))
	}
	if fmt.Sprintf("%v", k.key("FFT")) == fmt.Sprintf("%v", k.key("LU")) {
		t.Fatal("bench does not distinguish keys")
	}
}
