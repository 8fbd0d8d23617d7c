package workloads

// Trace-backed soundness checks for the static memory-access analysis
// (program.MemAccessInfo): replay the whole benchmark suite with tracing
// on and assert that no access ever exceeds its static worst-case
// transaction bound (the WPU emits obs.EvMemBoundExceeded and counts
// Stats.MemBoundExceeded when one does). The per-class dynamic
// transaction averages logged here are the precision table in
// EXPERIMENTS.md.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

func TestMemAccessConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Conv exercises lockstep warps (full-width accesses, the worst case
	// for the transaction bounds); ReviveSplit exercises narrow warp-split
	// masks, run-ahead and revival — subsets of the lanes the static bound
	// was computed over, which the bound must dominate too.
	for _, scheme := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive} {
		var total wpu.Stats
		kernels := make(map[string]bool)
		for _, spec := range All() {
			trace := obs.New(0)
			cfg := sim.DefaultConfig()
			cfg.WPU = scheme.Apply(cfg.WPU)
			cfg.Trace = trace
			sys, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := spec.Build(sys)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for i, st := range inst.Steps() {
				kernels[st.Prog.Name] = true
				if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
					t.Fatalf("%s step %d: %v", spec.Name, i, err)
				}
			}
			if err := inst.Verify(); err != nil {
				t.Fatal(err)
			}
			for _, ev := range trace.Events {
				if ev.Kind == obs.EvMemBoundExceeded {
					t.Errorf("%s: access @pc %d observed %d line transactions, above its static bound",
						spec.Name, ev.PC, ev.Mask2)
				}
			}
			st := sys.TotalStats()
			if st.MemBoundExceeded != 0 {
				t.Errorf("%s under %s: %d accesses exceeded their static transaction bound",
					spec.Name, scheme, st.MemBoundExceeded)
			}
			total.Add(&st)
		}
		if len(kernels) != 13 {
			t.Fatalf("suite has %d distinct kernels, want 13", len(kernels))
		}

		// The precision table: per static class, how many line transactions
		// one SIMD access actually issued on average, against the static
		// worst-case bound the class promises (uniform: 1; gather: Width).
		var sum uint64
		for c := 0; c < program.NumAccessClasses; c++ {
			sum += total.MemClassAccesses[c]
		}
		if sum != total.MemAccesses {
			t.Errorf("per-class access counts sum to %d, want MemAccesses = %d", sum, total.MemAccesses)
		}
		for c := 0; c < program.NumAccessClasses; c++ {
			n, tx := total.MemClassAccesses[c], total.MemClassTransactions[c]
			if n == 0 {
				continue
			}
			if program.AccessClass(c) == program.AccessUniform && tx != n {
				t.Errorf("uniform accesses issued %d transactions over %d accesses, want exactly 1 each", tx, n)
			}
			t.Logf("%s %-10s %9d accesses, %10d transactions, %.2f tx/access",
				scheme, program.AccessClass(c), n, tx, float64(tx)/float64(n))
		}
	}
}

// The per-kernel memory-access report is part of the verification surface
// (cmd/dwsverify -memaccess and make ci); pin it with a golden file so
// classification or bound regressions show up as a reviewable diff.
func TestMemAccessReportGolden(t *testing.T) {
	progs := kernelPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(progs[name].MemAccessReport())
		sb.WriteString("\n")
	}
	got := sb.String()

	path := filepath.Join("testdata", "memaccess_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/workloads -run MemAccessReportGolden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("memory-access report drifted from golden; rerun with -update if intended.\ndiff:\n%s",
			firstDiff(got, string(want)))
	}
}
