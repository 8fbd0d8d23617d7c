// dwstrace runs a benchmark and exports what dwsim does not: the default
// -format text prints a sampled timeline of every WPU's scheduling state —
// which SIMD groups exist, their masks, PCs and states, sync scopes and
// slip groups — the fastest way to see dynamic warp subdivision working
// (or to debug a policy change). json writes the raw event list of the
// internal/obs sink to stdout, and hist its log2 latency histograms
// (service level, MSHR residency, split lifetime, wait-merge wait). The
// Chrome trace, the interval timeline and the run metrics come from
// dwsim -trace, -timeline and -stats.
//
// The point runs through report.Session, like every other program's.
//
// Usage:
//
//	dwstrace -bench KMeans -scheme DWS.ReviveSplit -every 5000
//	dwstrace -bench Merge -scheme Slip.BranchBypass -from 10000 -until 12000 -every 100
//	dwstrace -bench KMeans -format json -every 1000 > events.json
//	dwstrace -bench KMeans -format hist > hists.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
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
		format    = flag.String("format", "text", "output format: text, json, or hist")
	)
	flag.Parse()

	switch *format {
	case "text", "json", "hist":
	default:
		fail(fmt.Errorf("unknown -format %q (want text, json, or hist; dwsim -trace and -timeline write the Chrome trace and the timeline)", *format))
	}

	k := report.DefaultKnobs(wpu.Scheme(*scheme))
	if err := k.Validate(); err != nil {
		fail(err)
	}
	if wpus := k.Config().WPUs; *onlyWPU < -1 || *onlyWPU >= wpus {
		fail(fmt.Errorf("-wpu %d: the machine has WPUs 0 to %d (-1 = all)", *onlyWPU, wpus-1))
	}
	// text dumps the machine every -every cycles from a hook on the run's
	// System; json and hist read the obs sink after it.
	var tr *obs.Trace
	var dump func(*sim.System) func()
	if *format != "text" {
		tr = obs.New(*every)
	} else if *every != 0 {
		dump = func(sys *sim.System) func() {
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
			return nil
		}
	}
	r, err := report.NewSession().RunTracedWith(*benchName, k, tr, dump)
	if err != nil {
		fail(err)
	}

	switch *format {
	case "json":
		err = obs.WriteEventsJSON(os.Stdout, tr)
	case "hist":
		err = obs.WriteHistCSV(os.Stdout, tr)
	case "text":
		st := r.Stats
		fmt.Printf("=== done: %d cycles, %d subdivisions (%d branch, %d mem, %d revivals), "+
			"%d PC merges, %d wait merges, %d scope merges ===\n",
			r.Cycles, st.BranchSubdivisions+st.MemSubdivisions,
			st.BranchSubdivisions, st.MemSubdivisions, st.Revivals,
			st.PCMerges, st.WaitMerges, st.ScopeMerges)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dwstrace:", err)
	os.Exit(1)
}
