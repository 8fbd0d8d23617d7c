package workloads

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// steadyStateAllocBudget is the allowed number of heap objects allocated
// during the measured 100k-cycle steady-state window of the KMeans run on a
// machine sim.New has just built. Events, MSHRs, tokens and re-convergence
// stacks are pooled, and Splits, sync scopes and slip groups come from
// per-WPU arenas rewound at Launch, so the window measures ~550 objects
// (15.5k before the arenas, nearly all of them Splits): arena chunks — one
// object per 64 Splits — and pool growth on a machine still reaching its
// high-water marks. A recycled machine allocates none of them. The budget
// leaves ~80% headroom while still failing loudly if a per-event or
// per-access allocation sneaks back into the hot path — the cheapest such
// mistake costs >10k objects per window.
const steadyStateAllocBudget = 1_000

// TestKMeansSteadyStateAllocBudget measures cumulative heap allocations
// (MemStats.Mallocs, which GC never decreases) across a mid-run window of
// the heaviest benchmark. The first 50k cycles are warmup: event pool,
// MSHR pools, token pools, and scratch slices grow to their high-water
// marks there. Past that point the engine is designed to run
// allocation-free, so the window's object count stays flat no matter how
// many events are scheduled inside it.
func TestKMeansSteadyStateAllocBudget(t *testing.T) {
	spec := specByName(t, "KMeans")
	cfg := sim.DefaultConfig()
	cfg.WPU = wpu.SchemeRevive.Apply(cfg.WPU)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}

	const startCycle, endCycle = 50_000, 150_000
	var m0, m1 runtime.MemStats
	sampled := 0
	sys.Observe(startCycle, func(cycle uint64) {
		switch cycle {
		case startCycle:
			runtime.ReadMemStats(&m0)
			sampled++
		case endCycle:
			runtime.ReadMemStats(&m1)
			sampled++
		}
	})
	if err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if sampled != 2 {
		t.Fatalf("run ended after %d cycles, before the [%d, %d] measurement window",
			sys.Cycles(), startCycle, endCycle)
	}
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("steady-state window [%d, %d]: %d heap objects", startCycle, endCycle, allocs)
	if allocs > steadyStateAllocBudget {
		t.Errorf("%d heap objects allocated in the steady-state window, budget %d",
			allocs, steadyStateAllocBudget)
	}
}

func specByName(t *testing.T, name string) Spec {
	t.Helper()
	for _, spec := range All() {
		if spec.Name == name {
			return spec
		}
	}
	t.Fatalf("benchmark %s not found", name)
	return Spec{}
}
