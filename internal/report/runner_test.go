package report

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	if err := s.prefetch(jobs); err == nil {
		t.Fatal("prefetch ignored an unknown benchmark")
	}
	if err := s.prefetch(nil); err != nil {
		t.Fatalf("empty prefetch: %v", err)
	}
}

// TestPrefetchClaimsOnce counts simulations in flight through the machine
// hook. At WithJobs(n) no more than n run at once, and each distinct point
// of a batch that lists every point twice simulates exactly once. At
// WithJobs(1) the caller is the only worker: the hook runs on the calling
// goroutine and sees no goroutine the call did not start with (goroutines
// of earlier tests may still be exiting, so the count may only fall). After
// an error nothing more is claimed.
func TestPrefetchClaimsOnce(t *testing.T) {
	var jobs []Job
	for _, scheme := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive, wpu.SchemeBranchOnly, wpu.SchemeReviveMemOnly} {
		j := Job{Bench: "Filter", Knobs: DefaultKnobs(scheme)}
		jobs = append(jobs, j, j)
	}
	for _, n := range []int{1, 3} {
		s := NewSession(WithJobs(n))
		var inFlight, peak, calls atomic.Int64
		caller, before := goroutineID(), runtime.NumGoroutine()
		s.OnSystem = func(Job, *sim.System) func() {
			calls.Add(1)
			now := inFlight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			if n == 1 {
				if id := goroutineID(); id != caller {
					t.Errorf("WithJobs(1): a run on goroutine %s, prefetch called on %s", id, caller)
				}
				if g := runtime.NumGoroutine(); g > before {
					t.Errorf("WithJobs(1): %d goroutines inside the run, %d before prefetch", g, before)
				}
			}
			return func() { inFlight.Add(-1) }
		}
		if err := s.prefetch(jobs); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(n) {
			t.Errorf("WithJobs(%d): %d simulations at once", n, p)
		}
		if got, want := s.Stats().Misses, uint64(len(jobs)/2); got != want || calls.Load() != int64(want) {
			t.Errorf("WithJobs(%d): %d misses and %d runs for %d distinct points", n, got, calls.Load(), want)
		}
	}

	s := NewSession(WithJobs(1))
	var calls atomic.Int64
	s.OnSystem = func(Job, *sim.System) func() { calls.Add(1); return nil }
	bad := append([]Job{{Bench: "NoSuchBench", Knobs: DefaultKnobs(wpu.SchemeConv)}}, jobs...)
	if err := s.prefetch(bad); err == nil {
		t.Fatal("prefetch ignored an unknown benchmark")
	}
	if calls.Load() != 0 || s.Provenance("Filter", DefaultKnobs(wpu.SchemeConv)) != "" {
		t.Errorf("after the first job failed, %d more were simulated", calls.Load())
	}
}

// goroutineID is the calling goroutine's number, read off its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// TestSuiteMemHitAllocs holds a Suite call whose every point is already in
// the session cache to the allocations written here, at one worker and at
// two: the jobs, the pool's state, the results and their rows, plus one
// goroutine's closure at two. A channel or a goroutine per call or per job
// that came back would show here.
func TestSuiteMemHitAllocs(t *testing.T) {
	points := []Knobs{DefaultKnobs(wpu.SchemeConv), DefaultKnobs(wpu.SchemeRevive), DefaultKnobs(wpu.SchemeReviveMemOnly)}
	for _, c := range []struct{ jobs, pin int }{{1, 4}, {2, 5}} {
		s := NewSession(WithJobs(c.jobs))
		for _, k := range points {
			for _, b := range BenchNames() {
				slot := &inflight{done: make(chan struct{})}
				close(slot.done)
				s.cache[Job{b, k}] = slot
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.Suite(BenchNames(), points...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Suite of %d memory hits at WithJobs(%d): %.0f allocs", len(points)*len(BenchNames()), c.jobs, allocs)
		if allocs > float64(c.pin) {
			t.Errorf("Suite of memory hits at WithJobs(%d): %.0f allocs, pinned at %d", c.jobs, allocs, c.pin)
		}
		if st := s.Stats(); st.Misses != 0 {
			t.Fatalf("a memory hit simulated: %+v", st)
		}
	}
}

// TestRunPanicIsNotMemoized panics a run through the machine hook, directly
// and on a prefetch worker: the panic reaches the caller's goroutine both
// times, and the point it was computing is dropped rather than left in
// flight, so the next Run of it simulates instead of blocking forever.
func TestRunPanicIsNotMemoized(t *testing.T) {
	s := NewSession(WithJobs(2))
	s.OnSystem = func(Job, *sim.System) func() { panic("injected") }
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
	v := panics(func() { s.prefetch(jobs) }) //nolint:errcheck // it panics
	if msg, _ := v.(string); !strings.HasPrefix(msg, "injected\n") || !strings.Contains(msg, "goroutine") {
		t.Errorf("prefetch recovered %v, want the injected panic and its stack", v)
	}
	s.OnSystem = nil
	if err := s.prefetch(jobs); err != nil {
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

// shortBenches are the two cheapest benchmarks. Under -short the tests of
// the concurrent paths (prefetch's workers, the singleflight cache, the
// store's write-through and loads) make their check on these through
// Session.Suite instead of on whole-suite exhibits, so that `make race`
// runs the same Session and Store code in a fraction of the time.
var shortBenches = []string{"Filter", "FFT"}

// suiteRows runs s.Suite on benches at points and prints every Result of
// each point, one a line: equal rows are equal Results.
func suiteRows(t *testing.T, s *Session, benches []string, points ...Knobs) []string {
	t.Helper()
	res, err := s.Suite(benches, points...)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res))
	for i, row := range res {
		var b strings.Builder
		for _, r := range row {
			fmt.Fprintf(&b, "%+v\n", *r)
		}
		rows[i] = b.String()
	}
	return rows
}

// table1 renders Table 1 on s and returns its text followed by every Result
// behind it. Under -short it returns only the Results of shortBenches under
// Conv: Table 1's Session.Suite call on two benchmarks instead of eight.
func table1(t *testing.T, s *Session) string {
	t.Helper()
	if testing.Short() {
		return suiteRows(t, s, shortBenches, DefaultKnobs(wpu.SchemeConv))[0]
	}
	var buf bytes.Buffer
	if _, err := s.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String() + suiteRows(t, s, BenchNames(), DefaultKnobs(wpu.SchemeConv))[0]
}

// TestParallelDeterminism is the -j determinism guarantee: one exhibit
// rendered at -j 1 and -j 8 must produce identical bytes and identical
// Results.
func TestParallelDeterminism(t *testing.T) {
	s1 := NewSession(WithJobs(1))
	text1 := table1(t, s1)
	text8 := table1(t, NewSession(WithJobs(8)))
	if text1 != text8 {
		t.Errorf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", text1, text8)
	}
	if st := s1.Stats(); st.Misses == 0 || strings.TrimSpace(text1) == "" {
		t.Fatalf("degenerate exhibit run (misses=%d)", st.Misses)
	}
}

// TestPrefetchOnlyWarmsCache checks the fan-out/render split end to end:
// after prefetch, rendering must be pure cache reads.
func TestPrefetchOnlyWarmsCache(t *testing.T) {
	s := NewSession(WithJobs(4))
	benches := BenchNames()
	if testing.Short() {
		benches = shortBenches
	}
	if _, err := s.Suite(benches, DefaultKnobs(wpu.SchemeConv)); err != nil {
		t.Fatal(err)
	}
	sims := s.Stats().Misses
	table1(t, s)
	if got := s.Stats().Misses; got != sims {
		t.Errorf("rendering after prefetch ran %d extra simulations", got-sims)
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
