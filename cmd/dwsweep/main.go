// dwsweep runs a one-dimensional parameter sweep for a benchmark (or the
// whole suite) comparing two schemes, printing one row per sweep point. It
// is a row of report's sweeps table spelled on the command line: the same
// points, evaluator and mean as Figures 15-17 (`-param l2lat -values
// 10,30,100,200,300` prints Figure 16's DWS/Conv column).
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
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dwsweep:", err)
		os.Exit(1)
	}

	var vals []int
	for _, v := range strings.Split(*values, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			fail(fmt.Errorf("bad value %q", v))
		}
		vals = append(vals, n)
	}
	// Every point is built before anything runs, so a bad -param, value or
	// scheme ends the program here. Base points first, then -alt's.
	schemes := []string{*scheme}
	if *alt != "" {
		schemes = append(schemes, *alt)
	}
	var points []report.Knobs
	for _, sc := range schemes {
		pts, err := report.SweepPoints(wpu.Scheme(sc), *param, vals)
		if err != nil {
			fail(err)
		}
		points = append(points, pts...)
	}
	benches := []string{*bench}
	if *bench == "all" {
		benches = report.BenchNames()
	}

	s, _ := openSess("dwsweep", report.StoreOptions{})
	res, err := s.Suite(benches, points...)
	if err != nil {
		fail(err)
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
	for i, v := range vals {
		row := sweepRow{Value: v, BaseCycles: meanCycles(res[i])}
		fmt.Printf("%-10d  %-12.0f", v, row.BaseCycles)
		if *alt != "" {
			ra := res[len(vals)+i]
			row.AltCycles, row.Speedup = meanCycles(ra), report.Speedup(res[i], ra)
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
				fail(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fail(err)
		}
	}
}

// meanCycles is the arithmetic mean of a Suite row's cycle counts.
func meanCycles(rs []*report.Result) float64 {
	var sum uint64
	for _, r := range rs {
		sum += r.Cycles
	}
	return float64(sum) / float64(len(rs))
}
