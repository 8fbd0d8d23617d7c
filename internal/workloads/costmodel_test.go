package workloads

// Trace-backed soundness checks for the static cost model: replay the
// whole benchmark suite under every named scheme and confront the
// measured TickCycles and per-bucket stall cycles of every kernel launch
// with the static bounds. A measured value outside its interval is a
// cost-model soundness bug and fails the test.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// costModelKey memoizes CostModelFor per (kernel, thread-count): LU alone
// launches 142 steps and the model only depends on the program and the
// launch geometry.
type costModelKey struct {
	prog    *program.Program
	threads int
}

// runSuiteForCost replays every benchmark under one scheme, asserting per
// launch that the measured cycle totals satisfy the static bounds.
func runSuiteForCost(t *testing.T, scheme wpu.Scheme, models map[costModelKey]*program.CostModel) {
	t.Helper()
	for _, spec := range All() {
		cfg := sim.DefaultConfig()
		cfg.WPU = scheme.Apply(cfg.WPU)
		// A configuration that never creates a warp split must measure
		// exactly zero wst_full and slot_wait cycles.
		canSplit := cfg.WPU.SubdivideOnBranch || cfg.WPU.MemScheme != wpu.MemNone || cfg.WPU.Slip != wpu.SlipOff
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(sys)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, st := range inst.Steps() {
			key := costModelKey{st.Prog, len(st.Threads)}
			m := models[key]
			if m == nil {
				m = st.Prog.CostModelFor(sim.CostParamsFor(cfg, len(st.Threads)))
				models[key] = m
			}
			before := sys.TotalStats()
			if _, err := sys.RunKernel(st.Prog, st.Threads); err != nil {
				t.Fatalf("%s step %d: %v", spec.Name, i, err)
			}
			after := sys.TotalStats()

			ticks := after.TickCycles - before.TickCycles
			if !m.Ticks.Contains(int64(ticks)) {
				t.Errorf("%s/%s step %d (%s, %d threads): measured TickCycles %d outside static bound %s",
					scheme, spec.Name, i, st.Prog.Name, len(st.Threads), ticks, m.Ticks)
			}
			bb, ba := before.CycleBuckets(), after.CycleBuckets()
			bounds := m.BucketBoundsFor(canSplit)
			for b := range bounds {
				d := ba[b] - bb[b]
				if !bounds[b].Contains(int64(d)) {
					t.Errorf("%s/%s step %d (%s, %d threads): bucket %s measured %d outside static bound %s",
						scheme, spec.Name, i, st.Prog.Name, len(st.Threads), wpu.CycleBucketLabels[b], d, bounds[b])
				}
			}
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCostModelConcordance checks every kernel launch of every benchmark
// under every scheme against the static cycle bounds: TickCycles and each
// of the eight bucket deltas inside its interval.
func TestCostModelConcordance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	models := make(map[costModelKey]*program.CostModel)
	for _, scheme := range wpu.AllSchemes {
		runSuiteForCost(t, scheme, models)
	}
}

// TestCostModelReportGolden pins the Build-time cost-model report of every
// suite kernel. Regenerate with -update (or make update-goldens).
func TestCostModelReportGolden(t *testing.T) {
	progs := make(map[string]*program.Program)
	for _, spec := range All() {
		sys, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := spec.Build(sys)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, st := range inst.Steps() {
			progs[st.Prog.Name] = st.Prog
		}
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		sb.WriteString(progs[name].CostModelReport())
		sb.WriteString("\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "costmodel_report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("cost-model report drifted from %s (run with -update to regenerate)\ngot:\n%s", path, got)
	}
}

// costModelOp returns one op of BenchmarkCostModel: the full cost analysis
// of the suite's largest kernel, KMeans assign at 256 threads.
func costModelOp(tb testing.TB) func() {
	p := kmeansAssignKernel(kmeansP, kmeansK, kmeansD, 256)
	cp := sim.CostParamsFor(sim.DefaultConfig(), 256)
	return func() {
		if m := p.CostModelFor(cp); m == nil {
			tb.Fatal("nil cost model")
		}
	}
}

// BenchmarkCostModel times the full static analysis on the suite's
// largest kernel.
func BenchmarkCostModel(b *testing.B) {
	op := costModelOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestCostModelAllocs holds BenchmarkCostModel's op to at most 10 % over the
// allocation count written here.
func TestCostModelAllocs(t *testing.T) {
	const pin = 31
	allocs := testing.AllocsPerRun(20, costModelOp(t))
	t.Logf("CostModel: %.0f allocs/op", allocs)
	if allocs > 1.1*pin {
		t.Errorf("CostModel: %.0f allocs/op, pinned at %d (+10 %% allowed)", allocs, pin)
	}
}
