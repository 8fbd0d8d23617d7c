package report

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/wpu"
)

// setting is one integer knob, by its knobTable name, at one value.
type setting struct {
	knob  string
	value int
}

// at returns the Table 3 machine under scheme with the named knobs moved:
// the one constructor of a point that is spelled by knob name. An unknown
// name or a point the simulator cannot build is an error.
func at(scheme wpu.Scheme, set ...setting) (Knobs, error) {
	k := DefaultKnobs(scheme)
	for _, st := range set {
		if err := k.Set(st.knob, st.value); err != nil {
			return k, err
		}
	}
	return k, k.Validate()
}

// sweep is the experiment most of the evaluation repeats: one knob walks
// along values while the others stay at Table 3, but for fixed.
type sweep struct {
	id, title string // Figure id: its exhibit id, and figure<id>.csv
	fixed     []setting
	axis      string
	values    []int
	labels    []string // one per value, as the exhibit prints it

	// dws says which of the two exhibits a row is: Conv against
	// DWS.ReviveSplit along the axis (Figures 15-17, 20, 21), or the time
	// breakdown of Conv alone (Figures 1a-1c).
	dws bool
	// metric names the row's headline and head is the axis value it is
	// read at: DWS/Conv there for a dws row, else the memory-stall share
	// in percent.
	metric string
	head   int
}

// sweeps is every figure of that shape. A new one is a new row here and a
// sweepExhibit line in Exhibits.
var sweeps = []sweep{
	{id: "1a", title: "Figure 1a: wider SIMD does not always help — time breakdown vs SIMD width (4 warps, Conv; normalised to width 1)",
		axis: "width", values: []int{1, 2, 4, 8, 16, 32},
		labels: []string{"width  1", "width  2", "width  4", "width  8", "width 16", "width 32"},
		metric: "w16-memstall-%", head: 16},
	{id: "1b", title: "Figure 1b: memory time persists even with high associativity (16-wide, 4 warps, Conv; normalised to 4-way)",
		axis: "l1assoc", values: []int{4, 8, 16, 0},
		labels: []string{" 4-way", " 8-way", "16-way", "fully assoc"},
		metric: "fullyassoc-memstall-%", head: 0},
	{id: "1c", title: "Figure 1c: more warps eventually exacerbate contention — time breakdown vs warp count (8-wide, Conv; normalised to 1 warp)",
		fixed: []setting{{"width", 8}}, axis: "warps", values: []int{1, 2, 4, 8, 16, 32},
		labels: []string{" 1 warps", " 2 warps", " 4 warps", " 8 warps", "16 warps", "32 warps"},
		metric: "16warps-memstall-%", head: 16},
	{id: "15", title: "Figure 15: speedup vs D-cache associativity (normalised to Conv 8-way)", dws: true,
		axis: "l1assoc", values: []int{4, 8, 16, 0},
		labels: []string{"4-way", "8-way", "16-way", "fully assoc"},
		metric: "fullyassoc-speedup", head: 0},
	{id: "16", title: "Figure 16: speedup vs L2 lookup latency (normalised to Conv at 30 cycles)", dws: true,
		axis: "l2lat", values: []int{10, 30, 100, 200, 300},
		labels: []string{"10 cyc", "30 cyc", "100 cyc", "200 cyc", "300 cyc"},
		metric: "l2lat300-speedup", head: 300},
	{id: "17", title: "Figure 17: speedup vs D-cache size (normalised to Conv 32 KB)", dws: true,
		axis: "l1kb", values: []int{8, 16, 32, 64, 128},
		labels: []string{"8 KB", "16 KB", "32 KB", "64 KB", "128 KB"},
		metric: "l1-128kb-speedup", head: 128},
	{id: "20", title: "Figure 20: sensitivity to scheduler slots (DWS subdivides; Conv uses its 4 warps)", dws: true,
		axis: "slots", values: []int{2, 4, 8, 16, 32},
		labels: []string{"2 slots", "4 slots", "8 slots", "16 slots", "32 slots"},
		metric: "32slots-speedup", head: 32},
	{id: "21", title: "Figure 21: sensitivity to warp-split table entries (scheduler has 8 slots)", dws: true,
		fixed: []setting{{"slots", 8}}, axis: "wst", values: []int{4, 8, 16, 32, 64},
		labels: []string{"WST 4", "WST 8", "WST 16", "WST 32", "WST 64"},
		metric: "wst64-speedup", head: 64},
}

// points returns the sweep's machines under scheme, one per value.
func (sw *sweep) points(scheme wpu.Scheme) ([]Knobs, error) {
	pts := make([]Knobs, len(sw.values))
	for i, v := range sw.values {
		var err error
		if pts[i], err = at(scheme, append(slices.Clip(sw.fixed), setting{sw.axis, v})...); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// SweepPoints is a row that is in no table, the one dwsweep's flags spell:
// Table 3 under scheme with the knob called axis at each of values.
func SweepPoints(scheme wpu.Scheme, axis string, values []int) ([]Knobs, error) {
	return (&sweep{axis: axis, values: values}).points(scheme)
}

// sweepRow returns the sweeps row called id. There being none is a bug in
// the caller (an Exhibits entry without its row).
func sweepRow(id string) *sweep {
	i := slices.IndexFunc(sweeps, func(sw sweep) bool { return sw.id == id })
	if i < 0 {
		panic("report: no sweeps row " + id)
	}
	return &sweeps[i]
}

// sweepExhibit is the Exhibits entry of one sweeps row: the renderer, CSV
// writer and headline of its kind.
func sweepExhibit(id string) Exhibit {
	sw := sweepRow(id)
	head, title, csv := slices.Index(sw.values, sw.head), "Figure "+id, "figure"+id+".csv"
	if sw.dws {
		return exhibit(id, title, func(s *Session, w io.Writer) ([]SensitivityPoint, error) { return s.sensitivity(sw, w) },
			named(csv, SensitivityCSV), sw.metric, func(pts []SensitivityPoint) float64 { return pts[head].Speedup })
	}
	return exhibit(id, title, func(s *Session, w io.Writer) ([]SweepPoint, error) { return s.breakdown(sw, w) },
		named(csv, SweepCSV), sw.metric, func(pts []SweepPoint) float64 { return 100 * pts[head].MemStallFrac })
}

// SweepPoint is one x-axis point of a time-breakdown sweep (Figure 1).
type SweepPoint struct {
	Label        string
	NormTime     float64 // mean over the suite of execution time normalised to the first point
	BusyFrac     float64 // mean busy fraction
	MemStallFrac float64 // mean fraction of cycles spent waiting for memory
}

// breakdown prints a row of the sweeps table as the time breakdown of Conv
// along its axis (Figures 1a-1c).
func (s *Session) breakdown(sw *sweep, w io.Writer) ([]SweepPoint, error) {
	knobs, err := sw.points(wpu.SchemeConv)
	if err != nil {
		return nil, err
	}
	res, err := s.Suite(BenchNames(), knobs...)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(res))
	for i, rs := range res {
		norms, busies, stalls := make([]float64, len(rs)), make([]float64, len(rs)), make([]float64, len(rs))
		for b, r := range rs {
			norms[b] = float64(r.Cycles) / float64(res[0][b].Cycles)
			busies[b] = safeFrac(r.Stats.BusyCycles, r.Stats.Cycles())
			stalls[b] = r.Stats.MemStallFraction()
		}
		pts[i] = SweepPoint{sw.labels[i], arithMean(norms), arithMean(busies), arithMean(stalls)}
	}
	fmt.Fprintln(w, sw.title)
	t := newTable(w, "config", "norm. time", "busy", "waiting for memory")
	for _, p := range pts {
		t.row(p.Label, f2(p.NormTime), pctS(p.BusyFrac), pctS(p.MemStallFrac))
	}
	t.flush()
	return pts, nil
}

// SensitivityPoint is one x-value of a Conv-vs-DWS sensitivity sweep.
type SensitivityPoint struct {
	Label   string
	Conv    float64 // h-mean speedup of Conv at this point vs Conv baseline
	DWS     float64 // same for DWS.ReviveSplit
	Speedup float64 // h-mean DWS/Conv at this point
}

// sensitivity prints a row of the sweeps table as Conv against
// DWS.ReviveSplit along its axis, both normalised to Conv at Table 3
// (Figures 15-17, 20, 21).
func (s *Session) sensitivity(sw *sweep, w io.Writer) ([]SensitivityPoint, error) {
	knobs := []Knobs{DefaultKnobs(wpu.SchemeConv)}
	for _, sc := range []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive} {
		pts, err := sw.points(sc)
		if err != nil {
			return nil, err
		}
		knobs = append(knobs, pts...)
	}
	res, err := s.Suite(BenchNames(), knobs...)
	if err != nil {
		return nil, err
	}
	base, conv, dws := res[0], res[1:1+len(sw.values)], res[1+len(sw.values):]
	pts := make([]SensitivityPoint, len(sw.values))
	for i := range pts {
		pts[i] = SensitivityPoint{sw.labels[i], Speedup(base, conv[i]), Speedup(base, dws[i]), Speedup(conv[i], dws[i])}
	}
	fmt.Fprintln(w, sw.title)
	t := newTable(w, "config", "Conv", "DWS", "DWS/Conv")
	for _, p := range pts {
		t.row(p.Label, f2(p.Conv), f2(p.DWS), f2(p.Speedup))
	}
	t.flush()
	return pts, nil
}
