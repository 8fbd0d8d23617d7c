package sim_test

// Tests of the event-driven run loop (DESIGN.md "What changes in a cycle in
// which nothing issues"): Stats are exact at every point that can read them
// in mid-run, the sleep and the clock jump engage where they should and
// nowhere else, and a deadlock is reported in the cycle it always was. An
// external package, because the kernels come from internal/workloads, which
// imports sim.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

func newMachine(t *testing.T, scheme wpu.Scheme, tr *obs.Trace) *sim.System {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WPU = scheme.Apply(cfg.WPU)
	cfg.Trace = tr
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func build(t *testing.T, bench string, sys *sim.System) *workloads.Instance {
	t.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// kernel is what a check needs to know about the launch in flight: the cycle
// it started in and each WPU's TickCycles at that point. A WPU ticks once per
// cycle from its launch until it is done, so while it runs
//
//	TickCycles == base + cycles since the launch
//
// and from then on TickCycles stands still.
type kernel struct {
	start uint64
	base  []uint64
}

// barrierKernel is two phases of strided loads, each closed by a kernel-wide
// barrier, with the work skewed across WPUs (0, 30, 60, 90 loads per thread
// in the first phase, mirrored in the second): most WPUs reach each barrier
// early and sleep there until the last arrival releases them. No benchmark
// kernel has a barrier.
func barrierKernel(sys *sim.System) []workloads.Step {
	const threads = 256
	in := sys.Memory().AllocWords(64 * 1024)
	b := program.NewBuilder("skewed-barriers")
	phase := func(name string, iterations func()) {
		iterations() // into r9
		b.Shli(10, 1, 3)
		b.Add(10, 10, 4)
		b.Label(name)
		b.Beqz(9, name+".done")
		b.Ld(11, 10, 0)
		b.Addi(10, 10, 2048)
		b.Addi(9, 9, -1)
		b.Jmp(name)
		b.Label(name + ".done")
		b.Barrier()
	}
	wpuIndex := func() { b.Shri(9, 1, 6) } // 64 threads per WPU, block-wise
	phase("first", func() { wpuIndex(); b.Muli(9, 9, 30) })
	phase("second", func() { wpuIndex(); b.Movi(12, 3); b.Sub(9, 12, 9); b.Muli(9, 9, 30) })
	b.Halt()
	return []workloads.Step{{Prog: b.MustBuild(), Threads: sim.Threads(threads, func(_ int, r *isa.RegFile) {
		r.Set(4, int64(in))
	})}}
}

// testKernels are the kernels runKernels knows by name besides the
// benchmarks.
var testKernels = map[string]func(*sim.System) []workloads.Step{
	"barriers":   barrierKernel,
	"halt-split": haltSplitKernel,
}

// exactBenches are what the exactness tests run: two multi-kernel memory-bound
// benchmarks and barrierKernel.
var exactBenches = []string{"FFT", "LU", "barriers"}

// runKernels runs bench launch by launch, calling before and after around
// each RunKernel.
func runKernels(t *testing.T, sys *sim.System, bench string, before func(kernel), after func(kernel)) {
	t.Helper()
	var steps []workloads.Step
	if k, ok := testKernels[bench]; ok {
		steps = k(sys)
	} else {
		steps = build(t, bench, sys).Steps()
	}
	for i, st := range steps {
		k := kernel{start: sys.Cycles(), base: make([]uint64, len(sys.WPUs))}
		for j, w := range sys.WPUs {
			k.base[j] = w.Stats.TickCycles
		}
		if before != nil {
			before(k)
		}
		if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
			t.Fatalf("%s step %d: %v", bench, i, err)
		}
		if after != nil {
			after(k)
		}
	}
}

var exactSchemes = []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive, wpu.SchemeAggressBL}

// TestStatsExactAtEveryTracerCall: an observer of period 1 sees, every cycle,
// each WPU's taxonomy summing to its TickCycles, and a running WPU's
// TickCycles equal to the cycles since its launch — although most of those
// WPUs are asleep and have credited nothing since they fell asleep. A missing
// Sync, or one off by a cycle, fails here.
func TestStatsExactAtEveryTracerCall(t *testing.T) {
	for _, bench := range exactBenches {
		for _, scheme := range exactSchemes {
			sys := newMachine(t, scheme, nil)
			var cur kernel
			calls := 0
			sys.Observe(1, func(cycle uint64) {
				calls++
				for i, w := range sys.WPUs {
					st := &w.Stats
					if st.StallSum() != st.TickCycles {
						t.Fatalf("%s/%s cycle %d WPU %d: buckets sum to %d, TickCycles %d", bench, scheme, cycle, i, st.StallSum(), st.TickCycles)
					}
					if want := cur.base[i] + cycle - cur.start + 1; !w.Done() && st.TickCycles != want {
						t.Fatalf("%s/%s cycle %d WPU %d (asleep=%v): TickCycles %d, want %d", bench, scheme, cycle, i, w.Asleep(), st.TickCycles, want)
					}
				}
			})
			runKernels(t, sys, bench, func(k kernel) { cur = k }, nil)
			if uint64(calls) != sys.Cycles() {
				t.Fatalf("%s/%s: the observer ran %d times in %d cycles", bench, scheme, calls, sys.Cycles())
			}
		}
	}
}

// TestObservePeriodZero: Observe documents its period as at least 1, and a 0
// (it used to divide by zero in run and skipIdle) is taken as 1 — the hook
// runs in every cycle, and the simulation is the one an unobserved machine
// runs.
func TestObservePeriodZero(t *testing.T) {
	plain := newMachine(t, wpu.SchemeConv, nil)
	if err := build(t, "Filter", plain).Run(plain); err != nil {
		t.Fatal(err)
	}
	sys := newMachine(t, wpu.SchemeConv, nil)
	calls := uint64(0)
	sys.Observe(0, func(cycle uint64) {
		if cycle != calls {
			t.Fatalf("observer called at cycle %d, want %d", cycle, calls)
		}
		calls++
	})
	if err := build(t, "Filter", sys).Run(sys); err != nil {
		t.Fatal(err)
	}
	if sys.Cycles() != plain.Cycles() || calls != sys.Cycles() {
		t.Errorf("period 0: %d cycles (unobserved %d), observer ran %d times", sys.Cycles(), plain.Cycles(), calls)
	}
}

// TestTimelineSamplesExact: with no observer of period 1 the clock jumps, and
// the timeline sampler must still fire on every interval boundary and see
// exact counters. Samples carry deltas, so their running sum per WPU is that
// WPU's TickCycles at the sample cycle, which the kernel's start, the WPU's
// final count and one-tick-per-cycle determine.
func TestTimelineSamplesExact(t *testing.T) {
	for _, bench := range exactBenches {
		for _, scheme := range exactSchemes {
			for _, iv := range []uint64{1, 7, 1000} {
				tr := obs.New(iv)
				sys := newMachine(t, scheme, tr)
				name := fmt.Sprintf("%s/%s interval %d", bench, scheme, iv)
				sum := make([]uint64, len(sys.WPUs))
				seen := 0
				runKernels(t, sys, bench, nil, func(k kernel) {
					want := k.start + (iv-k.start%iv)%iv // first boundary of this kernel
					for ; seen < len(tr.Samples); seen++ {
						s := tr.Samples[seen]
						if s.Cycle != want {
							t.Fatalf("%s: sample at cycle %d, want the boundary %d", name, s.Cycle, want)
						}
						sum[s.WPU] += s.Busy + s.StallMem + s.StallOther
						ticks := min(k.base[s.WPU]+s.Cycle-k.start+1, sys.WPUs[s.WPU].Stats.TickCycles)
						if sum[s.WPU] != ticks {
							t.Fatalf("%s: samples of WPU %d sum to %d at cycle %d, TickCycles was %d", name, s.WPU, sum[s.WPU], s.Cycle, ticks)
						}
						if s.WPU == len(sys.WPUs)-1 {
							want += iv
						}
					}
					if want < sys.Cycles() {
						t.Fatalf("%s: no sample at cycle %d (kernel ran to %d)", name, want, sys.Cycles())
					}
				})
				if sys.SkippedCycles() == 0 && iv > 1 {
					t.Fatalf("%s: the clock never jumped; the test did not cover the clamp", name)
				}
			}
		}
	}
}

// sleptShare runs bench under scheme, on a machine attach (if any) has seen
// first, and returns the share of WPU-cycles credited in bulk, the share of
// machine cycles jumped over and the finished machine.
func sleptShare(t *testing.T, bench string, scheme wpu.Scheme, attach func(*sim.System) func()) (slept, skipped float64, sys *sim.System) {
	t.Helper()
	sys = newMachine(t, scheme, nil)
	if attach != nil {
		defer attach(sys)()
	}
	if err := build(t, bench, sys).Run(sys); err != nil {
		t.Fatal(err)
	}
	var s, ticks uint64
	for _, w := range sys.WPUs {
		s += w.SleptCycles()
		ticks += w.Stats.TickCycles
	}
	return float64(s) / float64(ticks), float64(sys.SkippedCycles()) / float64(sys.Cycles()), sys
}

// TestSleepEngages: on a memory-bound kernel under the conventional WPU most
// WPU-cycles are slept through and the clock jumps; under a slip scheme,
// whose stalled cycles differ from one another, neither ever happens. The
// live-metrics observer, which every dwsimd job runs under, costs the jump
// only the cycles it is due in and moves no cycle or counter of the run. The
// log is the table in EXPERIMENTS.md "Idle-cycle skipping" (go test -v).
func TestSleepEngages(t *testing.T) {
	slept, skipped, plain := sleptShare(t, "FFT", wpu.SchemeConv, nil)
	if slept < 0.40 || skipped == 0 {
		t.Errorf("FFT under Conv: %.1f%% of WPU-cycles slept (want >= 40%%), %.1f%% of machine cycles skipped (want > 0)", 100*slept, 100*skipped)
	}
	_, skipped, watched := sleptShare(t, "FFT", wpu.SchemeConv, func(sys *sim.System) func() { return new(sim.Live).Attach(sys, "FFT", "Conv") })
	if skipped == 0 {
		t.Error("FFT under Conv with sim.Live attached: the clock never jumped")
	}
	if same := reflect.DeepEqual(watched.TotalStats(), plain.TotalStats()); watched.Cycles() != plain.Cycles() || !same {
		t.Errorf("FFT under Conv: %d cycles with sim.Live attached, %d without; same Stats: %t", watched.Cycles(), plain.Cycles(), same)
	}
	if slept, skipped, _ := sleptShare(t, "FFT", wpu.SchemeSlip, nil); slept != 0 || skipped != 0 {
		t.Errorf("FFT under Slip: %.1f%% slept, %.1f%% skipped; a slip scheme must never sleep", 100*slept, 100*skipped)
	}
	if testing.Verbose() {
		for _, spec := range workloads.All() {
			for _, scheme := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive} {
				slept, skipped, _ := sleptShare(t, spec.Name, scheme, nil)
				t.Logf("%-8s %-16s slept %5.1f%% of WPU-cycles, skipped %5.1f%% of machine cycles", spec.Name, scheme, 100*slept, 100*skipped)
			}
		}
	}
}

// TestDeadlockCycleUnchanged: a run that can never finish is reported in the
// cycle the one-cycle-at-a-time loop reported it in. Verified kernels cannot
// deadlock on their own (barriers ignore halted threads and are rejected
// under divergence), so the test discards every event in flight at cycle
// 2500 of Merge — line fills that splits wait for — from an observer of that
// period, which leaves sleep and jump free to act. The machine runs on for
// thousands of cycles, until all it has left waits for a lost fill.
func TestDeadlockCycleUnchanged(t *testing.T) {
	// What the parent commit (PR 15), which ticks every WPU every cycle,
	// reports for these runs.
	for scheme, want := range map[wpu.Scheme]uint64{
		wpu.SchemeConv: 20586, wpu.SchemeRevive: 13653, wpu.SchemeAggressBL: 20586,
	} {
		sys := newMachine(t, scheme, nil)
		sys.Observe(2500, func(cycle uint64) {
			if cycle == 2500 {
				if sys.Q.Len() == 0 {
					t.Fatal("nothing in flight at cycle 2500")
				}
				sys.Q.Reset()
			}
		})
		err := build(t, "Merge", sys).Run(sys)
		if err == nil {
			t.Fatalf("%s: the run finished although its line fills were dropped", scheme)
		}
		if msg := fmt.Sprintf("step 0: sim: deadlock at cycle %d\n", want); !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: want %q, got: %.60s", scheme, msg, err)
		}
		if sys.SkippedCycles() == 0 {
			t.Errorf("%s: the clock never jumped on the way to the deadlock", scheme)
		}
		// The error leaves exact Stats behind: every WPU still running has
		// ticked once per cycle since cycle 0.
		for i, w := range sys.WPUs {
			if st := &w.Stats; st.StallSum() != st.TickCycles || !w.Done() && st.TickCycles != want+1 {
				t.Errorf("%s WPU %d after the deadlock: buckets %d, TickCycles %d, want %d", scheme, i, st.StallSum(), st.TickCycles, want+1)
			}
		}
	}
}
