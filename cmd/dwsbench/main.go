// dwsbench is the CI benchmark gate. It runs the pinned-iteration
// benchmarks listed in suites and holds, against the checked-in
// BENCH_baseline.json, the two kinds of number that repeat on a shared
// machine:
//   - allocs/op of every benchmark, which is effectively deterministic: a zero
//     baseline (the engine's allocation-free steady state, the histogram
//     record path) fails on ANY allocation, a nonzero one on growth past
//     allocBound;
//   - the ratio of two benchmarks timed in the same run (relGates): the two
//     are run in interleaved rounds, so what the host does over minutes
//     reaches both alike, and the median of the per-round ratios is compared,
//     so that one slow run does not decide.
//
// Absolute ns/op is not gated: on this box it moves 10-100 % between two runs
// of untouched code and the benchmarks do not move together (EXPERIMENTS.md
// "Why absolute times left the gate", which also has the spread the ratio
// tolerances are set from). Time is judged by paired parent-versus-change
// runs of the claims benchmark, bench/.
//
// Usage:
//
//	dwsbench          # compare against BENCH_baseline.json
//	dwsbench -update  # re-measure and rewrite the baseline
//
// Makefile wiring: `make bench-check` (part of `make ci`) and
// `make bench-baseline`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark as measured: ns/op of each round in turn (used
// only inside a ratio) and the minimum allocs/op over the rounds.
type result struct {
	ns     []float64
	allocs int64
}

// Baseline is the checked-in snapshot dwsbench compares against: an
// allocation count per benchmark and a ratio per relGate.
type Baseline struct {
	Note   string             `json:"note"`
	Allocs map[string]int64   `json:"allocs_per_op"`
	Ratios map[string]float64 `json:"ratios"`
}

// allocBound is the relative growth of a nonzero allocs/op baseline that
// still passes: the one-shot macro-benchmarks vary by a few percent with GC
// and map-growth timing, also at their floor. ratioBound is that of a
// relGate's ratio, about four standard deviations of the difference between
// two estimates of it on this box (EXPERIMENTS.md).
const (
	allocBound = 0.10
	ratioBound = 0.20
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against / update")
		update       = flag.Bool("update", false, "re-measure and rewrite the baseline instead of gating")
	)
	flag.Parse()

	got := map[string]result{}
	for _, s := range suites {
		if err := measure(s, got); err != nil {
			fmt.Fprintln(os.Stderr, "dwsbench:", err)
			os.Exit(1)
		}
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "dwsbench: no benchmark results parsed")
		os.Exit(1)
	}

	if *update {
		if err := writeBaseline(*baselinePath, got); err != nil {
			fmt.Fprintln(os.Stderr, "dwsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("dwsbench: wrote %s (%d benchmarks, %d ratios)\n", *baselinePath, len(got), len(relGates))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwsbench: %v (run `make bench-baseline` to create it)\n", err)
		os.Exit(1)
	}
	for _, rg := range relGates {
		g, _ := rg.ratio(got)
		fmt.Printf("dwsbench: %s = %.3f (baseline %.3f, +%.0f%% allowed)\n", rg.key(), g, base.Ratios[rg.key()], ratioBound*100)
	}
	if failures := compare(base, got); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "dwsbench: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("dwsbench: %d allocation pins and %d same-run ratios hold\n", len(base.Allocs), len(base.Ratios))
}

// suite is one `go test -bench` command of the gate, run `rounds` times over:
// its benchmarks alternate, which a relGate needs, where -count would repeat
// each in a block of its own. One round pins allocs/op. Iteration counts are
// pinned (NNx benchtimes) so allocs/op is comparable across hosts and
// baseline refreshes.
type suite struct {
	pkg       string
	bench     string
	benchtime string
	rounds    int
}

var suites = []suite{
	// The event engine's allocation-free steady state.
	{pkg: "./internal/engine", bench: "^BenchmarkEngineSteadyState$", benchtime: "1000000x", rounds: 1},
	// Execution-core fast paths: pre-decoded issue + SoA ALU lane loops, a
	// gather loop whose hits share completion events, and the map-free
	// memory paths (tiered page lookup, MSHR table) with their zero
	// allocs/op pins.
	{pkg: "./internal/wpu", bench: "^BenchmarkIssueALU$|^BenchmarkIssueMem$", benchtime: "200x", rounds: 1},
	// The ALU lane loops alone, under a partial mask: every arm of
	// ExecALULanes ranges over an iterator, and a yield closure that starts
	// escaping allocates per instruction. One leg pins it: the arms share
	// the iterator whatever the mask.
	{pkg: "./internal/isa", bench: "^BenchmarkExecALULanes$/^4$", benchtime: "300000x", rounds: 1},
	{pkg: "./internal/mem", bench: "^BenchmarkFuncMemReadWrite$|^BenchmarkMSHRLookup$", benchtime: "2000000x", rounds: 1},
	// End-to-end — Table 1 cold (eight full simulations, every kernel, on
	// machines built for them: each round is a new process) — and the obs
	// hooks on a KMeans run: ObsOverhead/off is the production path (nil
	// sink), ObsOverhead/on the opt-in tracing cost. The three are the sides
	// of relGates below, hence the rounds.
	{pkg: ".", bench: "^BenchmarkFullReportShort$|^BenchmarkObsOverhead$", benchtime: "1x", rounds: 42},
	// Observability: the histogram record path must stay allocation-free.
	{pkg: "./internal/obs", bench: "^BenchmarkHistRecord$", benchtime: "2000000x", rounds: 1},
	// The result store under eight parallel clients, one save per seven
	// loads: the allocation count of a load and a save.
	{pkg: "./internal/report", bench: "^BenchmarkStoreParallel$", benchtime: "1500x", rounds: 3},
	// Program build and the cost model (CostModelFor on the suite's largest
	// kernel, KMeans assign at 256 threads): every static analysis runs
	// inside Build, so its allocation count is where analysis additions
	// would creep.
	{pkg: "./internal/program", bench: "^BenchmarkProgramBuild$", benchtime: "2000x", rounds: 1},
	{pkg: "./internal/workloads", bench: "^BenchmarkCostModel$", benchtime: "2000x", rounds: 1},
}

// relGate pins the ratio of two benchmarks of one suite against the
// baseline's ratio, as the median over the rounds of numerator ÷ denominator
// within a round.
type relGate struct {
	name string // numerator benchmark
	ref  string // denominator benchmark
}

func (rg relGate) key() string { return rg.name + " ÷ " + rg.ref }

// The obs overhead gates. They catch the gross regressions: tracing that
// gets dearer by a fifth of a run, or a DWS KMeans run that slows by a fifth
// against the Conv suite. The finer classes are held elsewhere: an emission
// site that loses its enabled-check is dwslint's obsguard rule, and any
// allocation it makes trips the allocs/op gate outright.
var relGates = []relGate{
	{name: "ObsOverhead/off", ref: "FullReportShort"},
	{name: "ObsOverhead/on", ref: "ObsOverhead/off"},
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.:
//
//	BenchmarkObsOverhead/off-8   1   85242762 ns/op   338808 B/op   189 allocs/op
//
// The name it captures is without the "Benchmark" prefix and the -GOMAXPROCS
// suffix, so baselines do not depend on the host's processor count.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op.*\s([0-9]+) allocs/op`)

// measure runs one suite's rounds and folds them into one result per
// benchmark: every round's ns/op, and the minimum allocs/op. The count is what
// the code allocates plus, now and then, what a GC cycle that empties a pool
// makes it allocate again (ObsOverhead/off at 1x: 607-638 in 22 of 25 rounds,
// 729, 730 and 870 in the others); a regression raises the floor.
func measure(s suite, got map[string]result) error {
	var out []byte
	for i := 0; i < s.rounds; i++ {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", s.bench,
			"-benchtime", s.benchtime,
			"-benchmem",
			s.pkg)
		o, err := cmd.CombinedOutput()
		if err != nil {
			return fmt.Errorf("go test -bench %s: %v\n%s", s.bench, err, o)
		}
		out = append(out, o...)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("parse ns/op in %q: %v", line, err)
		}
		allocs, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return fmt.Errorf("parse allocs/op in %q: %v", line, err)
		}
		r := got[name]
		if len(r.ns) == 0 || allocs < r.allocs {
			r.allocs = allocs
		}
		r.ns = append(r.ns, ns)
		got[name] = r
	}
	return nil
}

// ratio is what a relGate holds, as measured: the median per-round ratio.
func (rg relGate) ratio(got map[string]result) (float64, bool) {
	n, r := got[rg.name].ns, got[rg.ref].ns
	if len(n) == 0 || len(n) != len(r) {
		return 0, false
	}
	q := make([]float64, len(n))
	for i := range n {
		q[i] = n[i] / r[i]
	}
	sort.Float64s(q)
	return (q[(len(q)-1)/2] + q[len(q)/2]) / 2, true
}

// compare returns a description of every gate violation: a benchmark or
// ratio missing from or extra to the baseline, allocs/op past the bound, a
// ratio past its tolerance.
func compare(base Baseline, got map[string]result) []string {
	var failures []string
	names := make([]string, 0, len(base.Allocs))
	for name := range base.Allocs {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := base.Allocs[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, inBase := base.Allocs[name]
		g, measured := got[name]
		switch {
		case !measured:
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured (benchmark renamed or deleted?)", name))
		case !inBase:
			failures = append(failures, fmt.Sprintf("%s: measured but missing from baseline — run `make bench-baseline`", name))
		// A zero alloc baseline fails on any alloc at all: the engine's
		// allocation-free steady state must not erode by "just one".
		case float64(g.allocs) > float64(b)*(1+allocBound):
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d — allocation regression", name, g.allocs, b))
		}
	}
	for _, rg := range relGates {
		b, ok := base.Ratios[rg.key()]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: ratio missing from baseline — run `make bench-baseline`", rg.key()))
			continue
		}
		// A side that was not measured is already reported above.
		if g, ok := rg.ratio(got); ok && g > b*(1+ratioBound) {
			failures = append(failures, fmt.Sprintf("%s = %.3f, baseline %.3f (+%.1f%% > %.0f%% tolerance)",
				rg.key(), g, b, 100*(g/b-1), ratioBound*100))
		}
	}
	return failures
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

func writeBaseline(path string, got map[string]result) error {
	b := Baseline{
		Note:   "allocs/op (min over rounds) per benchmark and the median per-round ns/op ratio per relGate (see cmd/dwsbench); refresh with `make bench-baseline`",
		Allocs: map[string]int64{},
		Ratios: map[string]float64{},
	}
	for name, r := range got {
		b.Allocs[name] = r.allocs
	}
	for _, rg := range relGates {
		g, ok := rg.ratio(got)
		if !ok {
			return fmt.Errorf("%s: a side was not measured", rg.key())
		}
		b.Ratios[rg.key()] = math.Round(g*1000) / 1000
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
