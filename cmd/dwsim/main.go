// dwsim runs one benchmark under one configuration and prints the
// statistics the paper's evaluation is built from. Runs go through the
// report.Session executor, so they hit the shared on-disk result store
// and, with -bench all, simulate concurrently under -j.
//
// Usage:
//
//	dwsim -bench Merge -scheme DWS.ReviveSplit
//	dwsim -bench FFT -scheme Conv -width 8 -warps 8 -l1kb 64
//	dwsim -bench all -j 8 -nocache
//	dwsim -bench KMeans -trace trace.json -timeline timeline.csv -stats stats.json
//
// -trace/-timeline attach the observability sink (single benchmark only)
// and force a live simulation, bypassing the result caches; -stats writes
// machine-readable run metrics for any run.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

func main() {
	var (
		benchName = flag.String("bench", "Merge", "benchmark: FFT, Filter, HotSpot, LU, Merge, Short, KMeans, SVM, or 'all'")
		showDis   = flag.Bool("disasm", false, "print each kernel's disassembly instead of running")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file ('-' = stdout; single benchmark only)")
		tlOut     = flag.String("timeline", "", "write the interval timeline CSV to this file ('-' = stdout; single benchmark only)")
		statsOut  = flag.String("stats", "", "write machine-readable run metrics JSON to this file ('-' = stdout)")
		httpObs   = flag.String("httpobs", "", "serve live run metrics over HTTP at this address (e.g. :8080) while the process runs: '/' returns a JSON snapshot, '/metrics' the Prometheus text format")
		obsEvery  = flag.Uint64("obsevery", 1000, "timeline sample interval in cycles for -trace/-timeline")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		knobs     = report.KnobFlags(flag.CommandLine, wpu.SchemeRevive)
		openSess  = report.SessionFlags(flag.CommandLine)
	)
	flag.Parse()
	k := *knobs
	if err := k.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dwsim:", err)
		os.Exit(1)
	}
	// A zero interval records events but no samples: legal for -trace, an
	// empty file for -timeline.
	if *tlOut != "" && *obsEvery == 0 {
		fmt.Fprintln(os.Stderr, "dwsim: -timeline needs an -obsevery of at least 1 cycle")
		os.Exit(1)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				return
			}
			defer f.Close()
			// The allocs profile records cumulative allocations, which is
			// what the allocation-free event path is tuned against.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: memprofile:", err)
			}
		}()
	}

	names := []string{*benchName}
	if *benchName == "all" {
		names = report.BenchNames()
	}

	if *showDis {
		for _, name := range names {
			if err := disasm(name, k); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim:", err)
				os.Exit(1)
			}
		}
		return
	}

	s, _ := openSess("dwsim", report.StoreOptions{})

	var live *sim.Live
	if *httpObs != "" {
		live = sim.NewLive()
		// Attach's finish function publishes each run's final snapshot from
		// inside the run; by the time Session.Run returns the machine may
		// already be simulating something else.
		s.OnSystem = live.Attach
		ln, err := net.Listen("tcp", *httpObs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: -httpobs:", err)
			os.Exit(1)
		}
		defer ln.Close()
		go http.Serve(ln, live) //nolint:errcheck // serves until process exit
		fmt.Fprintf(os.Stderr, "dwsim: live metrics at http://%s/ (JSON) and http://%s/metrics (Prometheus)\n", ln.Addr(), ln.Addr())
	}

	traced := *traceOut != "" || *tlOut != ""
	if traced && len(names) != 1 {
		fmt.Fprintln(os.Stderr, "dwsim: -trace/-timeline need a single benchmark, not -bench all")
		os.Exit(1)
	}

	var docs []report.RunDoc
	if live != nil {
		live.SetMeta(*benchName, string(k.Scheme))
	}
	if traced {
		tr := obs.New(*obsEvery)
		start := time.Now()
		r, err := s.RunTraced(names[0], k, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim:", err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		printRun(names[0], k, r)
		if *traceOut != "" {
			if err := writeTo(*traceOut, func(w io.Writer) error { return obs.WriteChromeTrace(w, tr) }); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: write trace:", err)
				os.Exit(1)
			}
		}
		if *tlOut != "" {
			if err := writeTo(*tlOut, func(w io.Writer) error { return report.TimelineCSV(w, tr) }); err != nil {
				fmt.Fprintln(os.Stderr, "dwsim: write timeline:", err)
				os.Exit(1)
			}
		}
		doc := report.NewRunDoc(r, k, "traced-live", wall)
		doc.Hists = &tr.Hists
		docs = append(docs, doc)
	} else {
		start := time.Now()
		res, err := s.Suite(names, k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim:", err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		for i, name := range names {
			printRun(name, k, *res[0][i])
			docs = append(docs, report.NewRunDoc(*res[0][i], k, s.Provenance(name, k), wall))
		}
	}

	if *statsOut != "" {
		err := writeTo(*statsOut, func(w io.Writer) error { return report.WriteStatsDoc(w, docs, s.Stats()) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsim: write stats:", err)
			os.Exit(1)
		}
	}
}

// writeTo streams fn's output to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// disasm prints each kernel's disassembly; it builds the workload against
// a throwaway machine instead of simulating it.
func disasm(name string, k report.Knobs) error {
	spec, err := workloads.ByNameScaled(name, max(k.Scale, 1))
	if err != nil {
		return err
	}
	pl, err := spec.Plan(k.Config())
	if err != nil {
		return err
	}
	for _, p := range pl.Kernels {
		fmt.Printf("== %s ==\n%s\n", p.Name, p.Disassemble())
	}
	return nil
}

func printRun(name string, k report.Knobs, r report.Result) {
	st := r.Stats
	l1 := r.L1
	e := r.Energy
	fmt.Printf("%-8s %-24s cycles=%-9d busy=%.1f%% memstall=%.1f%% width=%.1f/%d\n",
		name, k.Scheme, r.Cycles,
		100*float64(st.BusyCycles)/float64(st.Cycles()),
		100*st.MemStallFraction(), st.MeanSIMDWidth(), k.Width)
	fmt.Printf("  instr=%d threadops=%d branches=%d (%.1f%% divergent) memacc=%d (%.1f%% divergent, %.1f%% with miss)\n",
		st.Issued, st.ThreadOps, st.Branches, pct(st.DivBranch, st.Branches),
		st.MemAccesses, pct(st.MemDivergent, st.MemAccesses), pct(st.MemWithMiss, st.MemAccesses))
	fmt.Printf("  L1: %.1f%% miss | subdivisions: branch=%d mem=%d revive=%d | merges: pc=%d scope=%d | peak splits=%d\n",
		100*l1.MissRate(), st.BranchSubdivisions, st.MemSubdivisions, st.Revivals,
		st.PCMerges, st.ScopeMerges, st.PeakSplits)
	if st.SlipEvents > 0 {
		fmt.Printf("  slip: events=%d merges=%d refused=%d\n", st.SlipEvents, st.SlipMerges, st.SlipRefused)
	}
	fmt.Printf("  energy=%.3f mJ (dynamic %.3f, leakage %.3f)\n", e.TotalmJ(), e.DynamicmJ(), e.LeakagemJ())
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
