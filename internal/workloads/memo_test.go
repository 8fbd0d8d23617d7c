package workloads

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// resetMemo empties the memo, so that the next Build of every key is a
// preparation.
func resetMemo() {
	memo.Lock()
	defer memo.Unlock()
	clear(memo.byKey)
	memo.order, memo.bytes = nil, 0
}

func memoized(k memoKey) *prepared {
	memo.Lock()
	defer memo.Unlock()
	return memo.byKey[k]
}

// memoMachines are the two configurations the memo tests build on: the
// default machine and one of half its thread capacity.
func memoMachines() map[string]sim.Config {
	small := sim.DefaultConfig()
	small.WPU.Warps = 8
	return map[string]sim.Config{"default": sim.DefaultConfig(), "warps8": small}
}

// outcome is what a run leaves that a Result is made of, and the image.
type outcome struct {
	Cycles uint64
	Stats  wpu.Stats
	L1     mem.L1Stats
	L2     mem.L2Stats
	Hash   uint64
}

func runOutcome(t *testing.T, sys *sim.System, in *Instance) outcome {
	t.Helper()
	if err := in.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
	return outcome{sys.Cycles(), sys.TotalStats(), sys.L1Stats(), sys.L2Stats(), sys.Memory().Hash()}
}

// TestMemoHitEqualsMiss: for every benchmark at scales 1 and 2, on the
// default machine and on one of another thread capacity, the first Build
// prepares (the capacity is in the key, so the second machine's first Build
// is a miss too) and a second one on the recycled machine is a memo hit.
// The hit is indistinguishable from the miss: the image right after Build,
// the launch plan and the run. The hit comes after the miss has run, so it
// also shows that a run leaves the shared preparation as it found it. Under
// -short only scale 1 is run.
func TestMemoHitEqualsMiss(t *testing.T) {
	resetMemo()
	scales := []int{1, 2}
	if testing.Short() {
		scales = scales[:1]
	}
	type point struct {
		bench string
		scale int
	}
	other := make(map[point]*prepared) // the other capacity's preparations
	for name, cfg := range memoMachines() {
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range scales {
			for _, spec := range AllWithScale(scale) {
				k := memoKey{spec.Name, scale, sys.ThreadCapacity()}
				if memoized(k) != nil {
					t.Fatalf("%s/%s x%d: prepared before its first Build", name, spec.Name, scale)
				}
				if err := sys.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				miss, err := spec.Build(sys)
				if err != nil {
					t.Fatal(err)
				}
				built := sys.Memory().Hash()
				plan, err := spec.Plan(cfg)
				if err != nil {
					t.Fatal(err)
				}
				first := runOutcome(t, sys, miss)

				if err := sys.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				hit, err := spec.Build(sys)
				if err != nil {
					t.Fatal(err)
				}
				if hit.prep != miss.prep || memoized(k) != miss.prep {
					t.Fatalf("%s/%s x%d: the second Build prepared again", name, spec.Name, scale)
				}
				if p := (point{spec.Name, scale}); other[p] == miss.prep {
					t.Fatalf("%s/%s x%d: two thread capacities share one preparation", name, spec.Name, scale)
				} else if other[p] == nil {
					other[p] = miss.prep
				}
				if h := sys.Memory().Hash(); h != built {
					t.Errorf("%s/%s x%d: image after a hit hashes %#x, after the miss %#x", name, spec.Name, scale, h, built)
				}
				if again, err := spec.Plan(cfg); err != nil || !reflect.DeepEqual(again, plan) {
					t.Errorf("%s/%s x%d: the plan moved between miss and hit (%v)", name, spec.Name, scale, err)
				}
				if second := runOutcome(t, sys, hit); !reflect.DeepEqual(second, first) {
					t.Errorf("%s/%s x%d: a hit ran to %+v, the miss to %+v", name, spec.Name, scale, second, first)
				}
			}
		}
	}
}

// TestMemoConcurrentBuild: goroutines that build one key at once on
// machines of their own all get the one remembered preparation and the
// same image. `make race` runs it under the race detector.
func TestMemoConcurrentBuild(t *testing.T) {
	resetMemo()
	spec := mustSpec(t, "Filter")
	const n = 4
	var wg sync.WaitGroup
	insts := make([]*Instance, n)
	hashes := make([]uint64, n)
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := sim.New(sim.DefaultConfig())
			if err == nil {
				insts[i], err = spec.Build(sys)
			}
			if err == nil {
				hashes[i] = sys.Memory().Hash()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if insts[i].prep != insts[0].prep || hashes[i] != hashes[0] {
			t.Fatalf("build %d: preparation %p and image %#x, build 0: %p and %#x",
				i, insts[i].prep, hashes[i], insts[0].prep, hashes[0])
		}
	}
}

// TestMemoBudget: entries past the byte budget drop out oldest first, a
// re-entered key is not counted twice, and an entry larger than the budget
// on its own is still remembered, alone.
func TestMemoBudget(t *testing.T) {
	resetMemo()
	defer resetMemo()
	third := memoBudget / 3
	keys := []memoKey{{"a", 1, 1}, {"b", 1, 1}, {"c", 1, 1}, {"d", 1, 1}}
	for _, k := range keys {
		remember(k, &prepared{}, third)
	}
	if got := remember(keys[3], &prepared{}, third); got != memoized(keys[3]) {
		t.Fatal("a second entry under one key replaced the first")
	}
	if memoized(keys[0]) != nil || memo.bytes != 3*third || len(memo.order) != 3 {
		t.Fatalf("after four thirds of the budget: %d bytes in %d entries, oldest kept: %v",
			memo.bytes, len(memo.order), memoized(keys[0]) != nil)
	}
	big := memoKey{"big", 1, 1}
	remember(big, &prepared{}, 2*memoBudget)
	if len(memo.order) != 1 || memoized(big) == nil {
		t.Fatalf("an oversized entry left %d entries", len(memo.order))
	}
}

// TestPlanAllocs: a Plan builds no machine, so once the suite is prepared
// eight Plans allocate fewer than 100 times; and a configuration Reset
// refuses is Plan's error too, with the same message.
func TestPlanAllocs(t *testing.T) {
	cfg := sim.DefaultConfig()
	specs := All()
	for _, s := range specs {
		if _, err := s.Plan(cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range specs {
			s.Plan(cfg) //nolint:errcheck // checked above
		}
	})
	t.Logf("%d warm Plans: %.0f allocs", len(specs), allocs)
	if allocs >= 100 {
		t.Errorf("%d warm Plans: %.0f allocs, want fewer than 100", len(specs), allocs)
	}

	wide := cfg
	wide.WPU.Width = 65
	_, err := specs[0].Plan(wide)
	_, resetErr := sim.New(wide)
	if err == nil || resetErr == nil || err.Error() != resetErr.Error() {
		t.Errorf("width 65: Plan says %v, Reset says %v", err, resetErr)
	}
}
