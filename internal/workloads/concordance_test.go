package workloads

// Trace-backed soundness checks for the static divergence analysis: replay
// the whole benchmark suite with the uniform-branch fast path disabled and
// event tracing on, and confront every dynamically-observed divergent
// branch with the analysis verdict. A statically-uniform branch that
// diverges at runtime is an analysis soundness bug and fails the test; the
// converse (divergence-capable branches that never diverge on these
// inputs) is the measured precision gap reported in EXPERIMENTS.md.

import (
	"flag"
	"fmt"
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

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// branchKey identifies one static branch site across the suite.
type branchKey struct {
	kernel string
	pc     int
}

// replaySuite runs every benchmark under one scheme with tracing enabled
// and returns the set of branch sites that dynamically diverged, plus the
// kernel programs seen.
func replaySuite(t *testing.T, scheme wpu.Scheme) (map[branchKey]bool, map[string]*program.Program) {
	t.Helper()
	diverged := make(map[branchKey]bool)
	progs := make(map[string]*program.Program)
	for _, spec := range All() {
		trace := obs.New(0)
		cfg := sim.DefaultConfig()
		cfg.WPU = scheme.Apply(cfg.WPU)
		// Evaluate every branch lane by lane so a divergence the analysis
		// failed to predict is observed, not steered away by the fast path.
		cfg.WPU.DisableUniformFast = true
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
			progs[st.Prog.Name] = st.Prog
			evStart := len(trace.Events)
			if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
				t.Fatalf("%s step %d: %v", spec.Name, i, err)
			}
			for _, ev := range trace.Events[evStart:] {
				if ev.Kind == obs.EvBranchDiverge {
					diverged[branchKey{st.Prog.Name, ev.PC}] = true
				}
			}
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	return diverged, progs
}

func TestDivergenceConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Conv exercises lockstep warps; ReviveSplit exercises DWS warp-splits,
	// BranchBypass run-ahead and PC re-convergence — the mechanisms that
	// could expose an unsound uniformity claim if one existed.
	diverged := make(map[branchKey]bool)
	var progs map[string]*program.Program
	for _, scheme := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive} {
		d, p := replaySuite(t, scheme)
		for k := range d {
			diverged[k] = true
		}
		progs = p
	}
	if len(progs) != 13 {
		t.Fatalf("suite has %d distinct kernels, want 13", len(progs))
	}

	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)

	var capableTotal, divergedTotal, uniformTotal, branchTotal int
	for _, name := range names {
		p := progs[name]
		var capable, observed, uniform, branches int
		for pc, in := range p.Code {
			if !in.Op.IsBranch() {
				continue
			}
			bi, _ := p.Branch(pc)
			branches++
			dyn := diverged[branchKey{name, pc}]
			if bi.Class == program.ClassUniform {
				uniform++
				if dyn {
					t.Errorf("%s: branch @pc %d is statically uniform but dynamically diverged (class %s)",
						name, pc, bi.Class)
				}
				continue
			}
			capable++
			if dyn {
				observed++
			}
		}
		capableTotal += capable
		divergedTotal += observed
		uniformTotal += uniform
		branchTotal += branches
		t.Logf("%-14s %2d branches: %d uniform, %d divergence-capable, %d diverged dynamically",
			name, branches, uniform, capable, observed)
	}
	// Any dynamically-divergent site claimed uniform already failed above;
	// summarise the precision of the capable set for EXPERIMENTS.md.
	if capableTotal == 0 {
		t.Fatal("no divergence-capable branches across the suite")
	}
	t.Logf("suite: %d branches, %d proved uniform, precision %d/%d = %.0f%% of capable branches diverged",
		branchTotal, uniformTotal, divergedTotal, capableTotal,
		100*float64(divergedTotal)/float64(capableTotal))
}

// The per-kernel divergence report is part of the verification surface
// (cmd/dwsverify -divergence and make ci); pin it with a golden file so
// analysis regressions show up as a reviewable diff.
func TestDivergenceReportGolden(t *testing.T) {
	progs := kernelPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(progs[name].DivergenceReport())
		sb.WriteString("\n")
	}
	got := sb.String()

	path := filepath.Join("testdata", "divergence_report.golden")
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
		t.Fatalf("%v (run `go test ./internal/workloads -run DivergenceReportGolden -update`)", err)
	}
	if got != string(want) {
		t.Errorf("divergence report drifted from golden; rerun with -update if intended.\ndiff:\n%s",
			firstDiff(got, string(want)))
	}
}

// firstDiff returns a small context window around the first differing line.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return "(identical?)"
}
