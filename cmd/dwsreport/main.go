// dwsreport regenerates every table and figure of the paper's evaluation
// in one run (see DESIGN.md's experiment index). Results are printed as
// text tables; EXPERIMENTS.md records a reference run next to the paper's
// numbers.
//
// Usage:
//
//	dwsreport                 # the full set (several minutes)
//	dwsreport -quick          # trimmed Figure 18 grid
//	dwsreport -only 13        # a single exhibit (dwsreport -h lists the ids)
//	dwsreport -csv out/       # additionally write one CSV per exhibit
//	dwsreport -j 8            # simulate up to 8 points concurrently
//	dwsreport -nocache        # ignore the on-disk result store
//	dwsreport -stats run.json # machine-readable per-exhibit timing/cache stats
//
// Exhibit text goes to stdout and is byte-identical across -j values and
// cache states; per-exhibit timing and cache counters go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/report"
)

func main() {
	ids := make([]string, len(report.Exhibits))
	for i, e := range report.Exhibits {
		ids[i] = e.ID
	}
	var (
		quick    = flag.Bool("quick", false, "trim the Figure 18 grid")
		only     = flag.String("only", "", "run a single exhibit: "+strings.Join(ids, ", "))
		csvDir   = flag.String("csv", "", "directory to write per-exhibit CSV files")
		statsOut = flag.String("stats", "", "write per-exhibit timing and cache stats JSON to this file ('-' = stdout)")
		openSess = report.SessionFlags(flag.CommandLine)
	)
	flag.Parse()
	if *only != "" && !slices.Contains(ids, *only) {
		fmt.Fprintf(os.Stderr, "dwsreport: unknown exhibit %q (want one of %s)\n", *only, strings.Join(ids, ", "))
		os.Exit(1)
	}

	s, _ := openSess("dwsreport", report.StoreOptions{})
	w := os.Stdout
	// exhibitStat mirrors the stderr progress line as machine-readable JSON
	// for -stats; Seconds is wall-clock and therefore volatile.
	type exhibitStat struct {
		ID      string  `json:"id"`
		Title   string  `json:"title"`
		Seconds float64 `json:"seconds"`
		Sims    uint64  `json:"sims"`
		Disk    uint64  `json:"disk_hits"`
		Mem     uint64  `json:"mem_hits"`
	}
	var perExhibit []exhibitStat
	allStart := time.Now()
	for _, e := range report.Exhibits {
		if *only != "" && e.ID != *only {
			continue
		}
		start := time.Now()
		before := s.Stats()
		if _, err := e.Run(s, w, *csvDir, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "dwsreport: %s: %v\n", e.Title, err)
			os.Exit(1)
		}
		d := delta(before, s.Stats())
		secs := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "[%s in %.1fs: sims=%d disk-hits=%d mem-hits=%d]\n",
			e.Title, secs, d.Misses, d.DiskHits, d.MemHits)
		perExhibit = append(perExhibit, exhibitStat{
			ID: e.ID, Title: e.Title, Seconds: secs,
			Sims: d.Misses, Disk: d.DiskHits, Mem: d.MemHits,
		})
		fmt.Fprintln(w)
	}
	t := s.Stats()
	totalSecs := time.Since(allStart).Seconds()
	fmt.Fprintf(os.Stderr, "[total %.1fs at -j %d: sims=%d disk-hits=%d mem-hits=%d]\n",
		totalSecs, s.Jobs(), t.Misses, t.DiskHits, t.MemHits)

	if *statsOut != "" {
		doc := struct {
			Schema   string            `json:"schema"`
			Jobs     int               `json:"jobs"`
			Seconds  float64           `json:"seconds"`
			Exhibits []exhibitStat     `json:"exhibits"`
			Cache    report.CacheStats `json:"session_cache"`
		}{"dwsreport-stats-v1", s.Jobs(), totalSecs, perExhibit, t}
		out := os.Stdout
		if *statsOut != "-" {
			f, err := os.Create(*statsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsreport:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "dwsreport:", err)
			os.Exit(1)
		}
	}
}

func delta(before, after report.CacheStats) report.CacheStats {
	return report.CacheStats{
		MemHits:  after.MemHits - before.MemHits,
		DiskHits: after.DiskHits - before.DiskHits,
		Misses:   after.Misses - before.Misses,
	}
}
