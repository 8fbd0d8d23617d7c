// dwstrace runs a benchmark and exports what happened inside the machine.
// The default -format text prints a sampled timeline of every WPU's
// scheduling state — which SIMD groups exist, their masks, PCs and states,
// sync scopes and slip groups — the fastest way to see dynamic warp
// subdivision working (or to debug a policy change). The structured
// formats attach the internal/obs sink instead and write to stdout:
// chrome (trace-event JSON for Perfetto / chrome://tracing), json (the raw
// event list), csv (the interval timeline), and hist (the log2 latency
// histograms: service level, MSHR residency, split lifetime, wait-merge
// wait).
//
// Usage:
//
//	dwstrace -bench KMeans -scheme DWS.ReviveSplit -every 5000
//	dwstrace -bench Merge -scheme Slip.BranchBypass -from 10000 -until 12000 -every 100
//	dwstrace -bench KMeans -format chrome -every 1000 > trace.json
//	dwstrace -bench KMeans -format hist > hists.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

func main() {
	var (
		benchName = flag.String("bench", "KMeans", "benchmark to trace")
		scheme    = flag.String("scheme", "DWS.ReviveSplit", "scheme")
		every     = flag.Uint64("every", 5000, "sample interval in cycles")
		from      = flag.Uint64("from", 0, "first cycle to sample (text format)")
		until     = flag.Uint64("until", ^uint64(0), "last cycle to sample (text format)")
		onlyWPU   = flag.Int("wpu", -1, "restrict the text dump to one WPU (-1 = all)")
		format    = flag.String("format", "text", "output format: text, chrome, json, csv, or hist")
	)
	flag.Parse()

	switch *format {
	case "text", "chrome", "json", "csv", "hist":
	default:
		fail(fmt.Errorf("unknown -format %q (want text, chrome, json, csv, or hist)", *format))
	}
	// The csv timeline is nothing but samples; the other formats are
	// complete at -every 0 (events only, or no dumps before the summary).
	if *format == "csv" && *every == 0 {
		fail(fmt.Errorf("-format csv needs an -every of at least 1 cycle"))
	}

	spec, err := workloads.ByName(*benchName)
	if err != nil {
		fail(err)
	}
	k := report.DefaultKnobs(wpu.Scheme(*scheme))
	if err := k.Validate(); err != nil {
		fail(err)
	}
	cfg := k.Config()
	if *onlyWPU < -1 || *onlyWPU >= cfg.WPUs {
		fail(fmt.Errorf("-wpu %d: the machine has WPUs 0 to %d (-1 = all)", *onlyWPU, cfg.WPUs-1))
	}
	var tr *obs.Trace
	if *format != "text" {
		tr = obs.New(*every)
		cfg.Trace = tr
	}
	sys, err := sim.New(cfg)
	if err != nil {
		fail(err)
	}
	inst, err := spec.Build(sys)
	if err != nil {
		fail(err)
	}

	if *format == "text" && *every != 0 {
		sys.Observe(*every, func(cycle uint64) {
			if cycle < *from || cycle > *until {
				return
			}
			fmt.Printf("=== cycle %d ===\n", cycle)
			for i, w := range sys.WPUs {
				if *onlyWPU >= 0 && i != *onlyWPU {
					continue
				}
				fmt.Print(w.DebugDump())
			}
		})
	}

	if err := inst.Run(sys); err != nil {
		fail(err)
	}
	if err := inst.Verify(); err != nil {
		fail(err)
	}

	switch *format {
	case "chrome":
		if err := obs.WriteChromeTrace(os.Stdout, tr); err != nil {
			fail(err)
		}
	case "json":
		if err := obs.WriteEventsJSON(os.Stdout, tr); err != nil {
			fail(err)
		}
	case "csv":
		if err := report.TimelineCSV(os.Stdout, tr); err != nil {
			fail(err)
		}
	case "hist":
		if err := obs.WriteHistCSV(os.Stdout, tr); err != nil {
			fail(err)
		}
	case "text":
		st := sys.TotalStats()
		fmt.Printf("=== done: %d cycles, %d subdivisions (%d branch, %d mem, %d revivals), "+
			"%d PC merges, %d wait merges, %d scope merges ===\n",
			sys.Cycles(), st.BranchSubdivisions+st.MemSubdivisions,
			st.BranchSubdivisions, st.MemSubdivisions, st.Revivals,
			st.PCMerges, st.WaitMerges, st.ScopeMerges)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dwstrace:", err)
	os.Exit(1)
}
