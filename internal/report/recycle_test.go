package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// outcome is everything a simulation leaves behind that a later reader can
// see: the Result, the functional memory image, and (traced runs) the event
// and sample sequences.
type outcome struct {
	r       Result
	memHash uint64
	events  []obs.Event
	samples []obs.Sample
}

// simulate runs one point on sys, which the caller has just built or Reset
// for cfgFor(k, tr). With crawl set, an observer of period 1 that does
// nothing makes the run loop visit every cycle and bring every WPU's
// counters up to date in each, instead of jumping over the cycles in which
// all of them sleep.
func simulate(t *testing.T, sys *sim.System, bench string, k Knobs, tr *obs.Trace, crawl bool) outcome {
	t.Helper()
	r, err := runOn(sys, bench, k, func(_ Job, sys *sim.System) func() {
		if crawl {
			sys.Observe(1, func(uint64) {})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", bench, k.Scheme, err)
	}
	o := outcome{r: r, memHash: sys.Memory().Hash()}
	if tr != nil {
		o.events, o.samples = tr.Events, tr.Samples
	}
	return o
}

func cfgFor(k Knobs, tr *obs.Trace) sim.Config {
	cfg := k.Config()
	cfg.Trace = tr
	return cfg
}

// abandonMidRun starts bench on sys and kills the run from inside the cycle
// loop, the way a panicking kernel would: events in flight, MSHRs busy,
// splits live, an observer installed. (runLive never recycles such a machine;
// the test does, to show that Reset does not depend on a clean ending.)
func abandonMidRun(t *testing.T, sys *sim.System, bench string, k Knobs, atCycle uint64) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s finished before cycle %d; nothing was abandoned", bench, atCycle)
		}
		if sys.Q.Len() == 0 {
			t.Fatal("abandoned run left no event in flight; pick an earlier cycle")
		}
	}()
	runOn(sys, bench, k, func(_ Job, sys *sim.System) func() { //nolint:errcheck // it panics
		sys.Observe(atCycle, func(cycle uint64) {
			if cycle == atCycle {
				panic("abandon")
			}
		})
		return nil
	})
}

// TestRecycledMachineEqualsFresh is the suite oracle: it runs each point
// twice and demands the same outcome. The
// reference is a fresh machine built for the point alone, on which stalled
// WPUs sleep and the clock jumps over the cycles in which all of them do.
// The other is one machine recycled through every point in turn — every
// benchmark under every scheme in a shuffled order, interleaved with
// geometry changes (L1 size, warps per WPU, WST entries, WPU count and
// distribution), two traced runs and a run abandoned mid-flight — with an
// observer of period 1 that makes it crawl through every cycle. Both must
// leave the same Result (cycles, every Stats field, cache and DRAM counters,
// energy), the same memory image and, when traced, the same events, samples
// and latency histograms; so neither Reset nor the idle-cycle jump may
// change anything a reader can see (TestJumpEqualsCrawl tells the two
// apart when this test fails). Every run passes its benchmark's host
// reference check (runOn verifies), issues instructions and touches memory,
// and since a scheme changes timing only, every scheme must leave the
// memory image Conv leaves for the same benchmark and, on the Table 3
// geometry, perform the thread operations and floating-point operations
// Conv performs: subdivision regroups threads, it never adds or drops a
// thread's instruction.
func TestRecycledMachineEqualsFresh(t *testing.T) {
	type point struct {
		bench   string
		k       Knobs
		traced  bool
		abandon bool
	}
	var pts []point
	for _, b := range BenchNames() {
		for _, sc := range wpu.AllSchemes {
			pts = append(pts, point{bench: b, k: DefaultKnobs(sc)})
		}
	}
	rng := rand.New(rand.NewSource(12))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	geom := func(mod func(*Knobs)) Knobs {
		k := DefaultKnobs(wpu.SchemeRevive)
		mod(&k)
		return k
	}
	mid := []point{
		{bench: "HotSpot", k: geom(func(k *Knobs) { k.L1KB = 8 })},
		{bench: "KMeans", k: geom(func(k *Knobs) { k.Warps = 2 })},
		{bench: "Merge", k: geom(func(k *Knobs) { k.WST = 4 })},
		{bench: "FFT", k: geom(func(k *Knobs) { k.WPUs = 2; k.Dist = sim.DistInterleave })},
		{bench: "Filter", k: DefaultKnobs(wpu.SchemeRevive), traced: true},
		{bench: "LU", k: DefaultKnobs(wpu.SchemeRevive), abandon: true},
		{bench: "Short", k: DefaultKnobs(wpu.SchemeSlip), traced: true},
	}
	if testing.Short() {
		pts = pts[:16]
	}
	half := len(pts) / 2
	pts = append(pts[:half:half], append(mid, pts[half:]...)...)

	// memHashes[bench][scheme] is the memory image of every finished run;
	// threadOps[bench][scheme] its ThreadOps and FloatOps, kept for the
	// Table 3 geometry only, since the thread count follows the geometry.
	memHashes := make(map[string]map[wpu.Scheme]uint64)
	threadOps := make(map[string]map[wpu.Scheme][2]uint64)
	var recycled *sim.System
	for i, p := range pts {
		name := fmt.Sprintf("run %d: %s under %s %+v", i, p.bench, p.k.Scheme, p.k)
		var trR, trF *obs.Trace
		if p.traced {
			trR, trF = obs.New(500), obs.New(500)
		}
		if recycled == nil {
			m, err := sim.New(cfgFor(p.k, trR))
			if err != nil {
				t.Fatal(err)
			}
			recycled = m
		} else if err := recycled.Reset(cfgFor(p.k, trR)); err != nil {
			t.Fatal(err)
		}
		if p.abandon {
			abandonMidRun(t, recycled, p.bench, p.k, 20_000)
			continue
		}
		fresh, err := sim.New(cfgFor(p.k, trF))
		if err != nil {
			t.Fatal(err)
		}
		want := simulate(t, fresh, p.bench, p.k, trF, false)
		got := simulate(t, recycled, p.bench, p.k, trR, true)
		if !reflect.DeepEqual(got.r, want.r) {
			t.Fatalf("%s: Result on the recycled machine crawling differs from a fresh one jumping:\n got %+v\nwant %+v", name, got.r, want.r)
		}
		if got.memHash != want.memHash {
			t.Fatalf("%s: memory hash %#x on the recycled machine crawling, %#x on a fresh one jumping", name, got.memHash, want.memHash)
		}
		if want.r.Stats.Issued == 0 || want.r.Stats.MemAccesses == 0 {
			t.Fatalf("%s: %d instructions issued, %d memory accesses; every benchmark does both", name, want.r.Stats.Issued, want.r.Stats.MemAccesses)
		}
		if p.traced {
			if len(want.events) == 0 || len(want.samples) == 0 {
				t.Fatalf("%s: traced run recorded nothing", name)
			}
			if !reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.samples, want.samples) {
				t.Fatalf("%s: trace on the recycled machine differs (%d/%d events, %d/%d samples)",
					name, len(got.events), len(want.events), len(got.samples), len(want.samples))
			}
			if !reflect.DeepEqual(trR.Hists, trF.Hists) {
				t.Fatalf("%s: latency histograms differ", name)
			}
		}
		if memHashes[p.bench] == nil {
			memHashes[p.bench] = make(map[wpu.Scheme]uint64)
		}
		memHashes[p.bench][p.k.Scheme] = want.memHash
		if p.k == DefaultKnobs(p.k.Scheme) {
			if threadOps[p.bench] == nil {
				threadOps[p.bench] = make(map[wpu.Scheme][2]uint64)
			}
			threadOps[p.bench][p.k.Scheme] = [2]uint64{want.r.Stats.ThreadOps, want.r.Stats.FloatOps}
		}
	}
	for _, b := range BenchNames() {
		conv, ok := memHashes[b][wpu.SchemeConv]
		if !ok {
			continue // -short ran no Conv point of b
		}
		convOps := threadOps[b][wpu.SchemeConv]
		for _, sc := range wpu.AllSchemes {
			if h, ok := memHashes[b][sc]; ok && h != conv {
				t.Errorf("%s: memory image under %s (%#x) differs from Conv's (%#x); a scheme may change only timing", b, sc, h, conv)
			}
			if ops, ok := threadOps[b][sc]; ok && ops != convOps {
				t.Errorf("%s: %d thread ops and %d float ops under %s, %d and %d under Conv; a scheme may change only timing",
					b, ops[0], ops[1], sc, convOps[0], convOps[1])
			}
		}
	}
}

// TestJumpEqualsCrawl isolates the idle-cycle jump from Reset: each point
// runs on two machines built for it alone, one plainly, when stalled WPUs
// sleep and the clock jumps over the cycles in which all of them do, and one
// with an observer of period 1 that does nothing, which makes the run loop
// visit every cycle and bring every WPU's counters up to date in each. The
// two must leave the same Result and the same memory image. The suite
// oracle makes the same comparison on every point, but against a recycled
// machine, so a failure there alone points at Reset and a failure here at
// the jump. One point per scheme, the benchmarks taken in turn, covers every
// scheme and every benchmark.
func TestJumpEqualsCrawl(t *testing.T) {
	benches := BenchNames()
	for i, sc := range wpu.AllSchemes {
		bench, k := benches[i%len(benches)], DefaultKnobs(sc)
		run := func(crawl bool) outcome {
			sys, err := sim.New(cfgFor(k, nil))
			if err != nil {
				t.Fatal(err)
			}
			return simulate(t, sys, bench, k, nil, crawl)
		}
		jump, crawl := run(false), run(true)
		if !reflect.DeepEqual(jump.r, crawl.r) {
			t.Fatalf("%s under %s: Result differs between the jumping and the cycle-by-cycle run:\n jump %+v\ncrawl %+v", bench, sc, jump.r, crawl.r)
		}
		if jump.memHash != crawl.memHash {
			t.Fatalf("%s under %s: memory hash %#x jumping, %#x cycle by cycle", bench, sc, jump.memHash, crawl.memHash)
		}
	}
}

// capacityFields are the fields of a machine that hold capacity, not state:
// free lists, arenas and scratch buffers that a Reset deliberately keeps.
// Their contents are unreachable from the simulation until overwritten, so
// TestResetRestoresEveryField skips them — and only them. A field added to
// any component later is compared unless it is listed here, which is the
// point: forgetting it in Reset fails the test.
var capacityFields = map[string]bool{
	"engine.Queue.free":     true, // pooled event records
	"mem.Memory.spare":      true, // zeroed pages
	"mem.L1.mshrPool":       true,
	"mem.L2.mshrPool":       true,
	"wpu.WPU.stackPool":     true, // re-convergence stacks
	"wpu.WPU.splits":        true, // arenas, rewound
	"wpu.WPU.scopes":        true,
	"wpu.WPU.slips":         true,
	"wpu.WPU.parkedScratch": true,
	"sim.System.staged":     true, // launch staging
	"sim.System.chunks":     true,
	"sim.System.dealt":      true,
}

// machineDiff walks two values field by field and returns the path of the
// first difference ("" if none). It reads unexported fields through
// reflection, follows pointers once per (a, b) pair so the cyclic machine
// graph terminates, compares slices by length and elements, and skips
// capacityFields.
func machineDiff(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return path + ": types differ"
	}
	switch a.Kind() {
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %g vs %g", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			return path + ": one func is nil"
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return path + ": one pointer is nil"
		}
		if a.IsNil() {
			return ""
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return ""
		}
		seen[key] = true
		return machineDiff(a.Elem(), b.Elem(), path, seen)
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": one interface is nil"
		}
		if a.IsNil() {
			return ""
		}
		return machineDiff(a.Elem(), b.Elem(), path, seen)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := machineDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: map len %d vs %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s: key %v missing", path, it.Key())
			}
			if d := machineDiff(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()), seen); d != "" {
				return d
			}
		}
	case reflect.Struct:
		tn := a.Type().String() // e.g. "wpu.WPU"
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if capacityFields[tn+"."+f.Name] {
				continue
			}
			if d := machineDiff(a.Field(i), b.Field(i), path+"."+f.Name, seen); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: kind %s not handled by machineDiff", path, a.Kind())
	}
	return ""
}

// TestResetRestoresEveryField dirties a machine — a full DWS run, then a run
// abandoned mid-flight with an observer installed and a trace attached — and
// checks that Reset leaves no field of any component different from a
// machine New has just built, for the same configuration and for one with a
// different geometry. The walk is by reflection over every field reachable
// from the System, so a field added later cannot be forgotten by Reset.
func TestResetRestoresEveryField(t *testing.T) {
	k := DefaultKnobs(wpu.SchemeSlipBranchBypass)
	dirty, err := sim.New(cfgFor(k, obs.New(100)))
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, dirty, "KMeans", k, nil, false)
	k = DefaultKnobs(wpu.SchemeAggressBL)
	if err := dirty.Reset(cfgFor(k, obs.New(100))); err != nil {
		t.Fatal(err)
	}
	abandonMidRun(t, dirty, "LU", k, 20_000)

	small := DefaultKnobs(wpu.SchemeConv)
	small.WPUs, small.Warps, small.Width, small.Slots, small.L1KB, small.L1Assoc, small.L2KB = 2, 2, 8, 3, 16, 0, 1024
	for _, k := range []Knobs{DefaultKnobs(wpu.SchemeAggressBL), small, DefaultKnobs(wpu.SchemeRevive)} {
		if err := dirty.Reset(k.Config()); err != nil {
			t.Fatal(err)
		}
		fresh, err := sim.New(k.Config())
		if err != nil {
			t.Fatal(err)
		}
		if d := machineDiff(reflect.ValueOf(dirty), reflect.ValueOf(fresh), "System", map[[2]uintptr]bool{}); d != "" {
			t.Fatalf("after Reset to %+v the machine differs from a new one at %s", k, d)
		}
		// Dirty it again, under this geometry, for the next round.
		simulate(t, dirty, "Filter", k, nil, false)
	}
}

// TestIdleMachinesHoldNoRunState checks the free list's side of the
// contract: a released machine carries neither the finished run's trace sink
// nor its observers, a failed run's machine is not released at all, and
// the list never outgrows its bound.
func TestIdleMachinesHoldNoRunState(t *testing.T) {
	drain := func() []*sim.System {
		machines.mu.Lock()
		defer machines.mu.Unlock()
		idle := machines.idle
		machines.idle = nil
		return idle
	}
	drain()
	defer drain()

	k := DefaultKnobs(wpu.SchemeRevive)
	finished := false
	hook := func(_ Job, sys *sim.System) func() {
		sys.Observe(1, func(uint64) {})
		return func() {
			if sys.Cycles() == 0 {
				t.Error("finish ran before the simulation")
			}
			finished = true
		}
	}
	if _, err := runLive("Filter", k, obs.New(1000), hook); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("the hook's finish function was never called")
	}
	idle := drain()
	if len(idle) != 1 {
		t.Fatalf("%d idle machines after one clean run, want 1", len(idle))
	}
	m := idle[0]
	if n := reflect.ValueOf(m).Elem().FieldByName("observers").Len(); n != 0 || m.Cfg.Trace != nil || m.Cycles() != 0 {
		t.Fatalf("idle machine still carries run state: %d observers trace=%v cycle=%d", n, m.Cfg.Trace, m.Cycles())
	}

	if _, err := runLive("NoSuchBench", k, nil, nil); err == nil {
		t.Fatal("unknown benchmark ran")
	}
	if idle := drain(); len(idle) != 0 {
		t.Fatalf("a failed run released its machine (%d idle)", len(idle))
	}
}
