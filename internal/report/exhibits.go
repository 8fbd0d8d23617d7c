package report

import (
	"io"

	"repro/internal/wpu"
)

// Exhibit is one table or figure of the evaluation. Run prints it to w and,
// when csvDir is not empty, writes its CSV file there; quick trims the
// Figure 18 grid and means nothing to the other exhibits. The number Run
// returns is the exhibit's headline, named by Metric ("" for an exhibit
// without one): what `go test -bench Exhibit` reports next to the time.
type Exhibit struct {
	ID, Title, Metric string
	Run               func(s *Session, w io.Writer, csvDir string, quick bool) (float64, error)
}

// Exhibits is the evaluation in presentation order: the one list behind
// dwsreport, its -only flag and the exhibit benchmarks. The eight figures
// that walk one knob are rows of the sweeps table (sweeps.go).
var Exhibits = []Exhibit{
	exhibit("t1", "Table 1", (*Session).Table1, Table1CSV, "mean-div-access-%", func(rows []Table1Row) float64 {
		return 100 * meanOf(rows, func(r Table1Row) float64 { return r.DivergentAccessPct })
	}),
	sweepExhibit("1a"),
	sweepExhibit("1b"),
	sweepExhibit("1c"),
	exhibit("7", "Figure 7", (*Session).Figure7, named("figure7.csv", SchemeCSV), "pc-based-hmean", hmeanOf(wpu.SchemeBranchOnly)),
	exhibit("11", "Figure 11", (*Session).Figure11, named("figure11.csv", SchemeCSV), "revive-bl-hmean", hmeanOf(wpu.SchemeReviveBL)),
	exhibit("13", "Figure 13", (*Session).Figure13, named("figure13.csv", SchemeCSV), "dws-revive-hmean", hmeanOf(wpu.SchemeRevive)),
	{"headline", "§5.5 headline", "", func(s *Session, w io.Writer, _ string, _ bool) (float64, error) { return 0, s.Headline(w) }},
	exhibit("14", "Figure 14", (*Session).Figure14, Figure14CSV, "", nil),
	sweepExhibit("15"),
	sweepExhibit("16"),
	sweepExhibit("17"),
	{"18", "Figure 18", "grid-points", func(s *Session, w io.Writer, csvDir string, quick bool) (float64, error) {
		pts, err := s.Figure18(w, quick)
		if err == nil && csvDir != "" {
			err = Figure18CSV(csvDir, pts)
		}
		return float64(len(pts)), err
	}},
	exhibit("19", "Figure 19", (*Session).Figure19, EnergyCSV, "dws-energy-%", func(rows []EnergyRow) float64 {
		return 100 * meanOf(rows, func(r EnergyRow) float64 { return r.DWS })
	}),
	sweepExhibit("20"),
	sweepExhibit("21"),
	exhibit("stalls", "Stall breakdown (§5.5)", (*Session).StallBreakdown, StallBreakdownCSV, "", nil),
	exhibit("ablation", "Ablation (beyond paper)", (*Session).Ablation, AblationCSV, "uncond-branch-hmean", func(rows []AblationRow) float64 {
		return rows[len(rows)-1].HMean
	}),
	exhibit("access", "Access classes (static analysis)", (*Session).MemAccessClasses, MemAccessCSV, "", nil),
}

// exhibit pairs a Session method that prints an exhibit and returns its
// data with the CSV writer for that data and the headline read off it.
func exhibit[T any](id, title string, run func(*Session, io.Writer) (T, error), csv func(dir string, data T) error, metric string, headline func(T) float64) Exhibit {
	return Exhibit{id, title, metric, func(s *Session, w io.Writer, csvDir string, _ bool) (float64, error) {
		data, err := run(s, w)
		if err == nil && csvDir != "" {
			err = csv(csvDir, data)
		}
		if err != nil || headline == nil {
			return 0, err
		}
		return headline(data), nil
	}}
}

// named fixes the file name of a CSV writer shared by several exhibits.
func named[T any](name string, csv func(dir, name string, data T) error) func(string, T) error {
	return func(dir string, data T) error { return csv(dir, name, data) }
}

// hmeanOf is the headline of a scheme comparison: one scheme's h-mean.
func hmeanOf(sc wpu.Scheme) func([]SchemeSpeedups) float64 {
	return func(out []SchemeSpeedups) float64 {
		for _, o := range out {
			if o.Scheme == sc {
				return o.HMean
			}
		}
		return 0
	}
}
