package sim_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// checkRoster fails unless the roster run reads agrees with a recount over
// the WPUs: its awake set is exactly the WPUs neither asleep nor done, and
// its running and at-barrier counts are those of a scan.
func checkRoster(t *testing.T, name string, cycle uint64, sys *sim.System) {
	t.Helper()
	r := sys.Roster()
	awake := r.Awake()
	running, atBarrier := 0, 0
	for i, w := range sys.WPUs {
		in := awake[i>>6]&(1<<(i&63)) != 0
		if want := !w.Asleep() && !w.Done(); in != want {
			t.Fatalf("%s cycle %d WPU %d (asleep=%v done=%v): in the awake set = %v", name, cycle, i, w.Asleep(), w.Done(), in)
		}
		if !w.Done() {
			running++
		}
		if w.AnyAtBarrier() {
			atBarrier++
		}
	}
	for i := len(sys.WPUs); i < 64*len(awake); i++ {
		if awake[i>>6]&(1<<(i&63)) != 0 {
			t.Fatalf("%s cycle %d: the awake set holds %d of a %d-WPU machine", name, cycle, i, len(sys.WPUs))
		}
	}
	if r.Running() != running || r.AtBarrier() != atBarrier {
		t.Fatalf("%s cycle %d: roster counts %d running and %d at the barrier, a recount %d and %d",
			name, cycle, r.Running(), r.AtBarrier(), running, atBarrier)
	}
}

// haltSplitKernel is a load that half the lanes hit (a line every lane read
// just before) and half miss (a cold line each), followed by the halt. Under
// BranchLimited re-convergence the two halves become splits of one sync scope
// that no branch re-merges: they halt apart, and retiring the last of them
// completes the scope, which adds a merged split with no live lane that
// retires in turn. So Done flips to true, back to false and to true again
// within one tick.
func haltSplitKernel(sys *sim.System) []workloads.Step {
	const threads = 256
	shared := sys.Memory().AllocWords(16)
	cold := sys.Memory().AllocWords(threads * 16)
	b := program.NewBuilder("halt-split")
	b.Ld(5, 4, 0)    // every lane: the shared line
	b.Andi(9, 1, 1)  // r9 = tid odd
	b.Shli(10, 1, 7) // r10 = cold line of tid − shared
	b.Add(10, 10, 6)
	b.Sub(10, 10, 4)
	b.Mul(10, 10, 9) // odd lanes: their cold line, even lanes: the shared one
	b.Add(10, 10, 4)
	b.Ld(11, 10, 0)
	b.Halt()
	return []workloads.Step{{Prog: b.MustBuild(), Threads: sim.Threads(threads, func(_ int, r *isa.RegFile) {
		r.Set(4, int64(shared))
		r.Set(6, int64(cold))
	})}}
}

// TestRosterEqualsRecount: an observer of period 1 recounts, every cycle, what
// the run loop reads instead of asking each WPU, on a memory-bound kernel under
// Conv (most WPUs asleep most of the time), a divergent one under
// ReviveSplit (splits come and go), haltSplitKernel (Done flips back within
// a tick) and the skewed-barrier kernel (WPUs park, sleep and are released).
func TestRosterEqualsRecount(t *testing.T) {
	for _, c := range []struct {
		bench  string
		scheme wpu.Scheme
	}{
		{"FFT", wpu.SchemeConv},
		{"KMeans", wpu.SchemeRevive},
		{"halt-split", wpu.SchemeAggressBL},
		{"barriers", wpu.SchemeConv},
		{"barriers", wpu.SchemeRevive},
	} {
		name := c.bench + "/" + string(c.scheme)
		sys := newMachine(t, c.scheme, nil)
		parked := false
		sys.Observe(1, func(cycle uint64) {
			checkRoster(t, name, cycle, sys)
			parked = parked || sys.Roster().AtBarrier() > 0
		})
		runKernels(t, sys, c.bench, nil, func(kernel) {
			if r := sys.Roster(); r.Running() != 0 {
				t.Fatalf("%s: a kernel returned with %d WPUs running", name, r.Running())
			}
		})
		if c.bench == "barriers" && !parked {
			t.Fatalf("%s: no WPU was ever seen at the barrier", name)
		}
	}
}

// TestManyWPUs: the awake set spans more than one 64-bit word, and it still
// equals a recount in every cycle; the directory's sharer sets span more
// than 64 L1s, and the hierarchy stays coherent. The cycle counts are
// dwsim -wpus 65 and -wpus 128.
func TestManyWPUs(t *testing.T) {
	for _, c := range []struct {
		bench  string
		scheme wpu.Scheme
		wpus   int
		cycles uint64
	}{
		{"Filter", wpu.SchemeRevive, 65, 11424},
		{"FFT", wpu.SchemeConv, 128, 72410},
	} {
		cfg := sim.DefaultConfig()
		cfg.WPUs = c.wpus
		cfg.WPU = c.scheme.Apply(cfg.WPU)
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := c.bench + "/" + string(c.scheme)
		sys.Observe(1, func(cycle uint64) { checkRoster(t, name, cycle, sys) })
		checkCoherenceEvery(t, name, sys, 500)
		if err := build(t, c.bench, sys).Run(sys); err != nil {
			t.Fatal(err)
		}
		if got := sys.Cycles(); got != c.cycles {
			t.Errorf("%s on %d WPUs: cycles=%d, want %d", name, c.wpus, got, c.cycles)
		}
	}
}
