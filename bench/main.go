// Command bench is the repo's claims benchmark: six workloads over the
// simulator core, the report pipeline and the dwsimd daemon, measured from
// outside through public calls only. See README.md for the glossary of
// workloads and metrics and for how to run, trace and compare.
//
//	sh bench/run.sh                         # every workload, untraced, into bench/out/run.json
//	sh bench/run.sh -trace 1                # the traced run: per-layer metrics, bench/out/trace.json
//	sh bench/run.sh -workload core_mem      # one workload; last stdout line is its JSON result
//	sh bench/run.sh -compare A.json B.json  # judge two result files against the bounds
//	sh bench/run.sh -smoke                  # one pass per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// measured is one metric value in a result file.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // how many timed samples the value summarises
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string              `json:"workload"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"` // the first few, for the reader
	SimDigest string              `json:"sim_digest"`
	WallS     float64             `json:"wall_s"`
	Metrics   map[string]measured `json:"metrics"`
}

// runRecord is one invocation: where and how it ran, and each workload's
// result. A result file holds a list of them (-runs N appends N).
type runRecord struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

type resultFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

const resultSchema = "dws-bench-v1"

// parallelism is how many worker goroutines, daemon workers and HTTP
// clients the benchmark uses: the box's cores, at most 2.
func parallelism() int { return min(runtime.NumCPU(), 2) }

// checkParallel refuses to start more threads or connections than cores.
func checkParallel(n int) error {
	if n > runtime.NumCPU() {
		return fmt.Errorf("refusing %d workers/connections on %d cores", n, runtime.NumCPU())
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all six, each in its own process)")
		seed     = flag.Int64("seed", 1, "permutes point and job order; the program under test never sees it")
		seconds  = flag.Float64("seconds", 10, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 = the traced run: spans, CPU profile, single-layer probes; prints the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "one pass per workload, no warm-up repeats: a quick end-to-end check")
		runs     = flag.Int("runs", 1, "repeat the whole set this many times (seed, seed+1, ...) into one result file")
		out      = flag.String("out", "", "result file (default bench/out/run.json; with -workload: none)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(parallelism())

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	root, err := repoRoot()
	if err != nil {
		fatal("%v", err)
	}
	cfg := runConfig{Root: root, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke}
	if *workload != "" {
		os.Exit(runOne(cfg, *workload, *out))
	}
	os.Exit(runAll(cfg, *runs, *out))
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

// repoRoot is where the program under test lives: the benchmark runs from
// the repository root (run.sh) or from bench/ (go run -C bench).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dwsimd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/ (no cmd/dwsimd near %s)", wd)
}

// runConfig is what every workload run is given.
type runConfig struct {
	Root    string
	Seed    int64
	Seconds float64
	Trace   bool
	Smoke   bool
}

func (c runConfig) outDir() string { return filepath.Join(c.Root, "bench", "out") }

// runOne runs a single workload in this process and prints its result;
// the last line of standard output is the JSON object the acceptance
// driver reads. The exit code is non-zero when any op failed.
func runOne(cfg runConfig, name, out string) int {
	fn, ok := workloadFuncs[name]
	if !ok {
		fatal("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	tmp, err := os.MkdirTemp(mkdirAll(filepath.Join(cfg.Root, ".bench_build", "tmp")), name+"-")
	if err != nil {
		fatal("%v", err)
	}
	r := newRun(cfg, name, tmp)
	start := time.Now()
	err = fn(r)
	if cerr := os.RemoveAll(tmp); err == nil {
		err = cerr
	}
	if err != nil {
		r.failf("workload aborted: %v", err)
	}
	res := r.result(time.Since(start))

	if cfg.Trace && r.rec != nil {
		path := filepath.Join(mkdirAll(cfg.outDir()), "trace-"+name+".json")
		if err := writeFileWith(path, func(f *os.File) error { return r.rec.writeChromeTrace(f, name) }); err != nil {
			fatal("%v", err)
		}
	}
	if out != "" {
		rec := newRunRecord(cfg)
		rec.Workloads = []workloadResult{res}
		if err := writeJSON(out, resultFile{Schema: resultSchema, Runs: []runRecord{rec}}); err != nil {
			fatal("%v", err)
		}
	}
	printResult(res, cfg.Trace)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult lists every metric the run measured, by name with its unit,
// then the one-line JSON summary: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func printResult(res workloadResult, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s: %d ops, %d failed, %.1f s, sim_digest %s\n",
		res.Workload, res.Attempted, res.Failed, res.WallS, res.SimDigest)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %-10s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]jm{}}
	for _, d := range list {
		summary.Metrics[d.Name] = jm{res.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

// runAll runs every workload, each in a process of its own so that heap
// state and the peak-RSS high-water mark do not leak from one workload to
// the next, and writes the result file.
func runAll(cfg runConfig, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if out == "" {
		out = filepath.Join(mkdirAll(cfg.outDir()), "run.json")
	}
	file := resultFile{Schema: resultSchema}
	exit := 0
	for i := 0; i < runs; i++ {
		rec := newRunRecord(cfg)
		rec.Seed = cfg.Seed + int64(i)
		for _, w := range workloadNames() {
			part := filepath.Join(mkdirAll(filepath.Join(cfg.Root, ".bench_build", "tmp")), fmt.Sprintf("part-%d-%s.json", os.Getpid(), w))
			args := []string{"-workload", w, "-seed", fmt.Sprint(rec.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-out", part}
			if cfg.Trace {
				args = append(args, "-trace", "1")
			}
			if cfg.Smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Dir = cfg.Root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				exit = 1
			}
			var one resultFile
			if err := readJSON(part, &one); err != nil || len(one.Runs) != 1 {
				fatal("workload %s left no result: %v", w, err)
			}
			os.Remove(part)
			rec.Workloads = append(rec.Workloads, one.Runs[0].Workloads...)
		}
		file.Runs = append(file.Runs, rec)
	}
	if err := writeJSON(out, file); err != nil {
		fatal("%v", err)
	}
	if cfg.Trace {
		if err := mergeTraces(cfg.outDir()); err != nil {
			fatal("%v", err)
		}
	}
	warnSpreads(os.Stdout, file)
	fmt.Printf("wrote %s\n", out)
	return exit
}

// mergeTraces joins the per-workload span files into bench/out/trace.json,
// one Perfetto process per workload.
func mergeTraces(dir string) error {
	var all []json.RawMessage
	for pid, w := range workloadNames() {
		var one struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := readJSON(filepath.Join(dir, "trace-"+w+".json"), &one); err != nil {
			return err
		}
		for _, ev := range one.TraceEvents {
			ev["pid"] = pid + 1
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			all = append(all, b)
		}
	}
	return writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
}

func newRunRecord(cfg runConfig) runRecord {
	commit := "unknown" // an exported checkout is not a git repository
	if b, err := exec.Command("git", "-C", cfg.Root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return runRecord{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
	}
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("%v", err)
	}
	return dir
}

func writeFileWith(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	return writeFileWith(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	})
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
