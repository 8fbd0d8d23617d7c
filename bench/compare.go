package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the values of one metric from the runs of a base file
// and of a candidate file. A result is worse by the relative distance of
// the medians in the metric's bad direction.
//
//   - unresolved: either side's quartile spread is wider than the bound and
//     the two sets of runs interleave, so the medians decide nothing;
//   - regressed: the candidate's median is worse by more than the bound;
//   - improved: it is better by more than the base's own quartile spread,
//     and the candidate wins at least nine tenths of at least ten
//     base/candidate pairs (three runs a side win all nine pairs by chance
//     once in twenty);
//   - unchanged otherwise.
func judge(d metricDef, base, cand []float64) (verdict string, ratio float64) {
	mb, mc := median(base), median(cand)
	if mb == 0 {
		if mc == 0 {
			return unchanged, 1
		}
		return unresolved, math.Inf(1)
	}
	ratio = mc / mb
	worse := ratio - 1 // lower is better
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	wins, pairs := 0, 0
	for _, b := range base {
		for _, c := range cand {
			if c == b {
				continue // ties count for neither side
			}
			pairs++
			if (c < b) == (d.Better == "lower") {
				wins++
			}
		}
	}
	interleave := wins != 0 && wins != pairs
	noisy := math.Max(spread(base), spread(cand)) > d.Bound
	switch {
	case noisy && interleave:
		return unresolved, ratio
	case worse > d.Bound:
		return regressed, ratio
	case -worse > spread(base) && pairs >= 10 && float64(wins) >= 0.9*float64(pairs):
		return improved, ratio
	}
	return unchanged, ratio
}

// valuesByKey collects, per (workload, metric), the value of every run in
// the file, and the worst failed share seen per workload.
func valuesByKey(f resultFile) (map[[2]string][]float64, map[string]float64) {
	vals := map[[2]string][]float64{}
	failed := map[string]float64{}
	for _, run := range f.Runs {
		for _, w := range run.Workloads {
			for name, m := range w.Metrics {
				k := [2]string{w.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
			failed[w.Workload] = math.Max(failed[w.Workload], float64(w.Failed)/float64(max(w.Attempted, 1)))
		}
	}
	return vals, failed
}

// compareFiles prints one row per gated (metric, workload) pair present
// in both files and reports whether anything regressed: a metric beyond
// its bound, a higher failed share, or a changed simulation digest is a
// regression of its own kind and is listed after the table.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	va, fa := valuesByKey(a)
	vb, fb := valuesByKey(b)
	var keys [][2]string
	for k := range va {
		if _, both := vb[k]; both {
			if d, ok := lookupMetric(k[1]); ok && d.Bound > 0 {
				keys = append(keys, k)
			}
		}
	}
	order := map[string]int{}
	for i, name := range workloadNames() {
		order[name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return order[keys[i][0]] < order[keys[j][0]]
		}
		return keys[i][1] < keys[j][1]
	})

	bad := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tcandidate median [q1, q3] n\tcand/base\tbound\tverdict\n")
	for _, k := range keys {
		d, _ := lookupMetric(k[1])
		verdict, ratio := judge(d, va[k], vb[k])
		if verdict == regressed {
			bad = true
		}
		cell := func(xs []float64) string {
			q1, q3 := quartiles(xs)
			return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(xs), q1, q3, len(xs))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f\t%.3g\t%s\n",
			k[0], k[1], d.Unit, cell(va[k]), cell(vb[k]), ratio, d.Bound, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, name := range workloadNames() {
		if fb[name] > fa[name] {
			bad = true
			fmt.Fprintf(w, "%s: failed share rose from %.4g to %.4g: regressed\n", name, fa[name], fb[name])
		}
	}
	digA, digB := digests(a), digests(b)
	for _, name := range workloadNames() {
		if da, db := digA[name], digB[name]; da != db || da == "mixed" {
			fmt.Fprintf(w, "%s: sim_digest %s -> %s (simulated statistics changed)\n", name, da, db)
		}
	}
	return bad, nil
}

// digests returns each workload's simulation digest, or "mixed" when the
// runs of one file disagree (which the digest's definition rules out).
func digests(f resultFile) map[string]string {
	out := map[string]string{}
	for _, run := range f.Runs {
		for _, w := range run.Workloads {
			if prev, seen := out[w.Workload]; seen && prev != w.SimDigest {
				out[w.Workload] = "mixed"
			} else if !seen {
				out[w.Workload] = w.SimDigest
			}
		}
	}
	return out
}

// warnSpreads flags every gated metric whose own run-to-run quartile
// spread exceeds its bound; with fewer than four runs there is no spread
// to speak of.
func warnSpreads(w io.Writer, f resultFile) {
	if len(f.Runs) < 4 {
		return
	}
	vals, _ := valuesByKey(f)
	var lines []string
	for k, xs := range vals {
		if d, ok := lookupMetric(k[1]); ok && d.Bound > 0 && spread(xs) > d.Bound {
			lines = append(lines, fmt.Sprintf("warning: %s %s: quartile spread %.3f of the median exceeds its bound %.3g",
				k[0], k[1], spread(xs), d.Bound))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
