package report

import "io"

// Exhibit is one table or figure of the evaluation. Run prints it to w and,
// when csvDir is not empty, writes its CSV file there; quick trims the
// Figure 18 grid and means nothing to the other exhibits.
type Exhibit struct {
	ID, Title string
	Run       func(s *Session, w io.Writer, csvDir string, quick bool) error
}

// Exhibits is the evaluation in presentation order: the one list behind
// dwsreport, its -only flag and the full-report benchmark.
var Exhibits = []Exhibit{
	exhibit("t1", "Table 1", (*Session).Table1, Table1CSV),
	exhibit("1a", "Figure 1a", (*Session).Figure1a, named("figure1a.csv", SweepCSV)),
	exhibit("1b", "Figure 1b", (*Session).Figure1b, named("figure1b.csv", SweepCSV)),
	exhibit("1c", "Figure 1c", (*Session).Figure1c, named("figure1c.csv", SweepCSV)),
	exhibit("7", "Figure 7", (*Session).Figure7, named("figure7.csv", SchemeCSV)),
	exhibit("11", "Figure 11", (*Session).Figure11, named("figure11.csv", SchemeCSV)),
	exhibit("13", "Figure 13", (*Session).Figure13, named("figure13.csv", SchemeCSV)),
	{"headline", "§5.5 headline", func(s *Session, w io.Writer, _ string, _ bool) error { return s.Headline(w) }},
	exhibit("14", "Figure 14", (*Session).Figure14, Figure14CSV),
	exhibit("15", "Figure 15", (*Session).Figure15, named("figure15.csv", SensitivityCSV)),
	exhibit("16", "Figure 16", (*Session).Figure16, named("figure16.csv", SensitivityCSV)),
	exhibit("17", "Figure 17", (*Session).Figure17, named("figure17.csv", SensitivityCSV)),
	{"18", "Figure 18", func(s *Session, w io.Writer, csvDir string, quick bool) error {
		pts, err := s.Figure18(w, quick)
		if err != nil || csvDir == "" {
			return err
		}
		return Figure18CSV(csvDir, pts)
	}},
	exhibit("19", "Figure 19", (*Session).Figure19, EnergyCSV),
	exhibit("20", "Figure 20", (*Session).Figure20, named("figure20.csv", SensitivityCSV)),
	exhibit("21", "Figure 21", (*Session).Figure21, named("figure21.csv", SensitivityCSV)),
	exhibit("stalls", "Stall breakdown (§5.5)", (*Session).StallBreakdown, StallBreakdownCSV),
	exhibit("ablation", "Ablation (beyond paper)", (*Session).Ablation, AblationCSV),
	exhibit("access", "Access classes (static analysis)", (*Session).MemAccessClasses, MemAccessCSV),
	exhibit("costmodel", "Cost model (static analysis)", (*Session).CostModel, CostModelCSV),
}

// exhibit pairs a Session method that prints an exhibit and returns its
// data with the CSV writer for that data.
func exhibit[T any](id, title string, run func(*Session, io.Writer) (T, error), csv func(dir string, data T) error) Exhibit {
	return Exhibit{id, title, func(s *Session, w io.Writer, csvDir string, _ bool) error {
		data, err := run(s, w)
		if err != nil || csvDir == "" {
			return err
		}
		return csv(csvDir, data)
	}}
}

// named fixes the file name of a CSV writer shared by several exhibits.
func named[T any](name string, csv func(dir, name string, data T) error) func(string, T) error {
	return func(dir string, data T) error { return csv(dir, name, data) }
}
