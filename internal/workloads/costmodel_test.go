package workloads

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
)

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

// costModelOp returns one op of BenchmarkCostModel: the trip-count and
// block-execution analysis of the suite's largest kernel, KMeans assign at
// 256 threads.
func costModelOp(tb testing.TB) func() {
	p := kmeansAssignKernel(kmeansP, kmeansK, kmeansD, 256)
	cp := sim.CostParamsFor(sim.DefaultConfig(), 256)
	return func() {
		if m := p.CostModelFor(cp); m == nil {
			tb.Fatal("nil cost model")
		}
	}
}

// BenchmarkCostModel times the static cost analysis (trip counts and block
// execution bounds) on the suite's largest kernel.
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
	const pin = 17
	allocs := testing.AllocsPerRun(20, costModelOp(t))
	t.Logf("CostModel: %.0f allocs/op", allocs)
	if allocs > 1.1*pin {
		t.Errorf("CostModel: %.0f allocs/op, pinned at %d (+10 %% allowed)", allocs, pin)
	}
}
