package workloads

// Trace-backed soundness checks for the static divergence analysis: replay
// the whole benchmark suite with event tracing on, and confront every
// dynamically-observed divergent branch with the analysis verdict. A
// statically-uniform branch that diverges at runtime is an analysis
// soundness bug and fails the test; the converse (divergence-capable
// branches that never diverge on these inputs) is the measured precision
// gap reported in EXPERIMENTS.md.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// replay is what one traced pass of the suite under one scheme leaves for
// the trace-backed concordance tests.
type replay struct {
	scheme   wpu.Scheme
	diverged map[branchKey]bool          // branch sites that diverged at run time
	progs    map[string]*program.Program // every kernel the suite ran
	stats    map[string]wpu.Stats        // per benchmark
	exceeded []string                    // accesses above their static transaction bound
}

// concordanceSchemes are the schemes the suite is replayed under. Conv
// exercises lockstep warps and full-width accesses, the worst case for the
// transaction bounds; ReviveSplit exercises DWS warp-splits, BranchBypass
// run-ahead, revival and PC re-convergence, and narrow split masks — the
// mechanisms that could expose an unsound uniformity claim or a bound that
// fails to dominate a subset of the lanes it was computed over.
var concordanceSchemes = []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive}

// suiteReplays is the package's one replay of the suite under each of
// concordanceSchemes, made by the first test that asks and read by both
// concordance tests, as report's suiteSession is shared by its exhibit
// tests.
var suiteReplays = sync.OnceValues(func() ([]*replay, error) {
	var out []*replay
	for _, scheme := range concordanceSchemes {
		r, err := replaySuite(scheme)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
})

// replaySuite runs every benchmark under one scheme with tracing enabled and
// records the branch sites that dynamically diverged, the kernel programs
// seen, each benchmark's statistics and every access the WPU flagged
// (obs.EvMemBoundExceeded) as above its static transaction bound. Every
// 1 000 cycles it checks the memory hierarchy's MESI invariants
// (mem.Hierarchy.CheckCoherence), and every benchmark must pass its host
// reference check. No suite kernel issues BARRIER, so no benchmark may spend
// a cycle at one; under Conv, the one scheme that cannot split, none may
// spend a cycle or an event on a full warp-split table or a scheduler-slot
// wait. A failed check is returned as the error.
func replaySuite(scheme wpu.Scheme) (*replay, error) {
	r := &replay{
		scheme:   scheme,
		diverged: make(map[branchKey]bool),
		progs:    make(map[string]*program.Program),
		stats:    make(map[string]wpu.Stats),
	}
	var errs []error
	for _, spec := range All() {
		trace := obs.New(0)
		cfg := sim.DefaultConfig()
		cfg.WPU = scheme.Apply(cfg.WPU)
		cfg.Trace = trace
		sys, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		var incoherent error
		sys.Observe(1000, func(cycle uint64) {
			if msg := sys.Hier.CheckCoherence(); msg != "" && incoherent == nil {
				incoherent = fmt.Errorf("%s under %s: cycle %d: %s", spec.Name, scheme, cycle, msg)
			}
		})
		inst, err := spec.Build(sys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		for i, st := range inst.Steps() {
			r.progs[st.Prog.Name] = st.Prog
			evStart := len(trace.Events)
			if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
				return nil, fmt.Errorf("%s step %d: %w", spec.Name, i, err)
			}
			for _, ev := range trace.Events[evStart:] {
				switch ev.Kind {
				case obs.EvBranchDiverge:
					r.diverged[branchKey{st.Prog.Name, ev.PC}] = true
				case obs.EvMemBoundExceeded:
					r.exceeded = append(r.exceeded, fmt.Sprintf("%s under %s: access @pc %d observed %d line transactions, above its static bound",
						spec.Name, scheme, ev.PC, ev.Mask2))
				}
			}
		}
		if incoherent != nil {
			return nil, incoherent
		}
		if err := inst.Verify(); err != nil {
			return nil, fmt.Errorf("%s under %s: %w", spec.Name, scheme, err)
		}
		st := sys.TotalStats()
		r.stats[spec.Name] = st
		if st.StallBarrier != 0 {
			errs = append(errs, fmt.Errorf("%s under %s: %d barrier cycles; no suite kernel issues BARRIER", spec.Name, scheme, st.StallBarrier))
		}
		if scheme == wpu.SchemeConv {
			if st.StallWSTFull != 0 || st.StallSlotWait != 0 || st.WSTFullRefusals != 0 || st.SlotWaits != 0 {
				errs = append(errs, fmt.Errorf("%s under Conv: wst_full %d, slot_wait %d cycles, %d WST refusals, %d slot waits; a scheme that cannot split has none",
					spec.Name, st.StallWSTFull, st.StallSlotWait, st.WSTFullRefusals, st.SlotWaits))
			}
		}
	}
	return r, errors.Join(errs...)
}

func TestDivergenceConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	replays, err := suiteReplays()
	if err != nil {
		t.Fatal(err)
	}
	diverged := make(map[branchKey]bool)
	var progs map[string]*program.Program
	for _, r := range replays {
		for k := range r.diverged {
			diverged[k] = true
		}
		progs = r.progs
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
