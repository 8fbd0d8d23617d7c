// dwsweep runs a one-dimensional parameter sweep for a benchmark (or the
// whole suite) comparing two schemes, printing one row per sweep point.
//
// Usage:
//
//	dwsweep -param l2lat -values 10,30,100,300 -bench Filter
//	dwsweep -param width -values 1,2,4,8,16 -scheme Conv -alt ""
//	dwsweep -param l1kb -values 8,16,32,64,128 -bench all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/wpu"
)

func main() {
	var (
		param    = flag.String("param", "l2lat", "knob to sweep: "+strings.Join(report.KnobNames(), ", "))
		values   = flag.String("values", "10,30,100,200,300", "comma-separated sweep values")
		bench    = flag.String("bench", "all", "benchmark name or 'all' (h-mean)")
		scheme   = flag.String("scheme", "Conv", "baseline scheme")
		alt      = flag.String("alt", "DWS.ReviveSplit", "comparison scheme ('' to disable)")
		statsOut = flag.String("stats", "", "write the sweep rows and cache stats as JSON to this file ('-' = stdout)")
		openSess = report.SessionFlags(flag.CommandLine)
	)
	flag.Parse()

	var vals []int
	for _, v := range strings.Split(*values, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dwsweep: bad value %q\n", v)
			os.Exit(1)
		}
		vals = append(vals, n)
	}

	// at returns the Table 3 machine under scheme with the swept knob at v.
	// Every point is built for the grid below before anything runs, so a bad
	// -param, value or scheme ends the program here.
	at := func(scheme string, v int) report.Knobs {
		k := report.DefaultKnobs(wpu.Scheme(scheme))
		err := k.Set(*param, v)
		if err == nil {
			err = k.Validate()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwsweep:", err)
			os.Exit(1)
		}
		return k
	}

	benches := []string{*bench}
	if *bench == "all" {
		benches = report.BenchNames()
	}

	s, _ := openSess("dwsweep", report.StoreOptions{})

	// Submit the whole sweep grid to the worker pool up front; the print
	// loop below then renders from the warm cache in deterministic order.
	var grid []report.Job
	for _, v := range vals {
		kb := at(*scheme, v)
		for _, b := range benches {
			grid = append(grid, report.Job{Bench: b, Knobs: kb})
			if *alt != "" {
				ka := at(*alt, v)
				grid = append(grid, report.Job{Bench: b, Knobs: ka})
			}
		}
	}
	if err := s.Prefetch(grid); err != nil {
		fmt.Fprintln(os.Stderr, "dwsweep:", err)
		os.Exit(1)
	}

	// sweepRow is the machine-readable form of one printed line.
	type sweepRow struct {
		Value      int     `json:"value"`
		BaseCycles float64 `json:"base_cycles"`
		AltCycles  float64 `json:"alt_cycles,omitempty"`
		Speedup    float64 `json:"speedup,omitempty"`
	}
	var rows []sweepRow

	fmt.Printf("%-10s  %-12s", *param, *scheme+" cyc")
	if *alt != "" {
		fmt.Printf("  %-12s  %s", *alt+" cyc", "speedup")
	}
	fmt.Println()
	for _, v := range vals {
		kb := at(*scheme, v)
		var baseCycles, altCycles, speedups []float64
		for _, b := range benches {
			rb, err := s.Run(b, kb)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsweep:", err)
				os.Exit(1)
			}
			baseCycles = append(baseCycles, float64(rb.Cycles))
			if *alt != "" {
				ka := at(*alt, v)
				ra, err := s.Run(b, ka)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dwsweep:", err)
					os.Exit(1)
				}
				altCycles = append(altCycles, float64(ra.Cycles))
				speedups = append(speedups, float64(rb.Cycles)/float64(ra.Cycles))
			}
		}
		row := sweepRow{Value: v, BaseCycles: mean(baseCycles)}
		fmt.Printf("%-10d  %-12.0f", v, row.BaseCycles)
		if *alt != "" {
			row.AltCycles = mean(altCycles)
			row.Speedup = report.HarmonicMean(speedups)
			fmt.Printf("  %-12.0f  %.3f", row.AltCycles, row.Speedup)
		}
		fmt.Println()
		rows = append(rows, row)
	}

	if *statsOut != "" {
		doc := struct {
			Schema string            `json:"schema"`
			Param  string            `json:"param"`
			Bench  string            `json:"bench"`
			Base   string            `json:"base_scheme"`
			Alt    string            `json:"alt_scheme,omitempty"`
			Rows   []sweepRow        `json:"rows"`
			Cache  report.CacheStats `json:"session_cache"`
		}{"dwsweep-stats-v1", *param, *bench, *scheme, *alt, rows, s.Stats()}
		out := os.Stdout
		if *statsOut != "-" {
			f, err := os.Create(*statsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwsweep:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "dwsweep:", err)
			os.Exit(1)
		}
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
