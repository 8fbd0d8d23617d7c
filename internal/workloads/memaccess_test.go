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

	"repro/internal/program"
	"repro/internal/wpu"
)

func TestMemAccessConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	replays, err := suiteReplays()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range replays {
		for _, msg := range r.exceeded {
			t.Error(msg)
		}
		var total wpu.Stats
		for _, spec := range All() {
			st := r.stats[spec.Name]
			if st.MemBoundExceeded != 0 {
				t.Errorf("%s under %s: %d accesses exceeded their static transaction bound",
					spec.Name, r.scheme, st.MemBoundExceeded)
			}
			total.Add(&st)
		}
		if len(r.progs) != 13 {
			t.Fatalf("suite has %d distinct kernels, want 13", len(r.progs))
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
				r.scheme, program.AccessClass(c), n, tx, float64(tx)/float64(n))
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
