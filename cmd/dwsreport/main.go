// dwsreport regenerates every table and figure of the paper's evaluation
// in one run (see DESIGN.md's experiment index). Results are printed as
// text tables; EXPERIMENTS.md records a reference run next to the paper's
// numbers.
//
// Usage:
//
//	dwsreport                 # the full set (several minutes)
//	dwsreport -quick          # trimmed Figure 18 grid
//	dwsreport -only 13        # a single exhibit (t1, 1a, 1b, 1c, 7, 11, 13,
//	                          # 14, 15, 16, 17, 18, 19, 20, 21, headline,
//	                          # stalls, ablation, access, costmodel)
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
	"time"

	"repro/internal/report"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "trim the Figure 18 grid")
		only     = flag.String("only", "", "run a single exhibit")
		csvDir   = flag.String("csv", "", "directory to write per-exhibit CSV files")
		statsOut = flag.String("stats", "", "write per-exhibit timing and cache stats JSON to this file ('-' = stdout)")
		openSess = report.SessionFlags(flag.CommandLine)
	)
	flag.Parse()

	s, _ := openSess("dwsreport", report.StoreOptions{})
	w := os.Stdout
	csvOut := func(fn func(dir string) error) error {
		if *csvDir == "" {
			return nil
		}
		return fn(*csvDir)
	}

	type exhibit struct {
		id  string
		fn  func() error
		doc string
	}
	exhibits := []exhibit{
		{"t1", func() error {
			rows, err := s.Table1(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.Table1CSV(d, rows) })
		}, "Table 1"},
		{"1a", func() error {
			pts, err := s.Figure1a(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SweepCSV(d, "figure1a.csv", pts) })
		}, "Figure 1a"},
		{"1b", func() error {
			pts, err := s.Figure1b(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SweepCSV(d, "figure1b.csv", pts) })
		}, "Figure 1b"},
		{"1c", func() error {
			pts, err := s.Figure1c(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SweepCSV(d, "figure1c.csv", pts) })
		}, "Figure 1c"},
		{"7", func() error {
			out, err := s.Figure7(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SchemeCSV(d, "figure7.csv", out) })
		}, "Figure 7"},
		{"11", func() error {
			out, err := s.Figure11(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SchemeCSV(d, "figure11.csv", out) })
		}, "Figure 11"},
		{"13", func() error {
			out, err := s.Figure13(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SchemeCSV(d, "figure13.csv", out) })
		}, "Figure 13"},
		{"headline", func() error { return s.Headline(w) }, "§5.5 headline"},
		{"14", func() error {
			grids, err := s.Figure14(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.Figure14CSV(d, grids) })
		}, "Figure 14"},
		{"15", func() error {
			pts, err := s.Figure15(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SensitivityCSV(d, "figure15.csv", pts) })
		}, "Figure 15"},
		{"16", func() error {
			pts, err := s.Figure16(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SensitivityCSV(d, "figure16.csv", pts) })
		}, "Figure 16"},
		{"17", func() error {
			pts, err := s.Figure17(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SensitivityCSV(d, "figure17.csv", pts) })
		}, "Figure 17"},
		{"18", func() error {
			pts, err := s.Figure18(w, *quick)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.Figure18CSV(d, pts) })
		}, "Figure 18"},
		{"19", func() error {
			rows, err := s.Figure19(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.EnergyCSV(d, rows) })
		}, "Figure 19"},
		{"20", func() error {
			pts, err := s.Figure20(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SensitivityCSV(d, "figure20.csv", pts) })
		}, "Figure 20"},
		{"21", func() error {
			pts, err := s.Figure21(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.SensitivityCSV(d, "figure21.csv", pts) })
		}, "Figure 21"},
		{"stalls", func() error {
			rows, err := s.StallBreakdown(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.StallBreakdownCSV(d, rows) })
		}, "Stall breakdown (§5.5)"},
		{"ablation", func() error {
			rows, err := s.Ablation(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.AblationCSV(d, rows) })
		}, "Ablation (beyond paper)"},
		{"access", func() error {
			rows, err := s.MemAccessClasses(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.MemAccessCSV(d, rows) })
		}, "Access classes (static analysis)"},
		{"costmodel", func() error {
			rows, err := s.CostModel(w)
			if err != nil {
				return err
			}
			return csvOut(func(d string) error { return report.CostModelCSV(d, rows) })
		}, "Cost model (static analysis)"},
	}
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
	for _, e := range exhibits {
		if *only != "" && e.id != *only {
			continue
		}
		start := time.Now()
		before := s.Stats()
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "dwsreport: %s: %v\n", e.doc, err)
			os.Exit(1)
		}
		d := delta(before, s.Stats())
		secs := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "[%s in %.1fs: sims=%d disk-hits=%d mem-hits=%d]\n",
			e.doc, secs, d.Misses, d.DiskHits, d.MemHits)
		perExhibit = append(perExhibit, exhibitStat{
			ID: e.id, Title: e.doc, Seconds: secs,
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
