package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wpu"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTable1CSV(t *testing.T) {
	dir := t.TempDir()
	rows := []Table1Row{
		{Bench: "FFT", InstPerBranch: 17.1, DivergentBranchPct: 0.023,
			InstPerMiss: 17.2, InstPerDivMiss: 103.8, DivergentAccessPct: 0.166},
	}
	if err := Table1CSV(dir, rows); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "table1.csv"))
	if len(got) != 2 || got[1][0] != "FFT" {
		t.Fatalf("csv = %v", got)
	}
	if got[0][1] != "inst_per_branch" {
		t.Fatalf("header = %v", got[0])
	}
}

func TestSweepAndSensitivityCSV(t *testing.T) {
	dir := t.TempDir()
	if err := SweepCSV(dir, "s.csv", []SweepPoint{{Label: "w16", NormTime: 0.1, BusyFrac: 0.5, MemStallFrac: 0.5}}); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "s.csv"))
	if len(got) != 2 || got[1][0] != "w16" {
		t.Fatalf("sweep csv = %v", got)
	}
	if err := SensitivityCSV(dir, "p.csv", []SensitivityPoint{{Label: "30", Conv: 1, DWS: 1.06, Speedup: 1.06}}); err != nil {
		t.Fatal(err)
	}
	got = readCSV(t, filepath.Join(dir, "p.csv"))
	if len(got) != 2 || got[1][3] != "1.06" {
		t.Fatalf("sensitivity csv = %v", got)
	}
}

func TestSchemeCSVBenchColumns(t *testing.T) {
	dir := t.TempDir()
	per := map[string]float64{}
	for _, b := range BenchNames() {
		per[b] = 1.5
	}
	out := []SchemeSpeedups{{Scheme: wpu.SchemeRevive, Per: per, HMean: 1.5}}
	if err := SchemeCSV(dir, "f13.csv", out); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "f13.csv"))
	// header + 8 benchmarks + h-mean
	if len(got) != 10 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0][1] != string(wpu.SchemeRevive) {
		t.Fatalf("header = %v", got[0])
	}
	if got[9][0] != "h-mean" || got[9][1] != "1.5" {
		t.Fatalf("h-mean row = %v", got[9])
	}
}

func TestFigure14CSVShape(t *testing.T) {
	dir := t.TempDir()
	grids := map[string][][]uint64{}
	for _, b := range BenchNames() {
		grids[b] = [][]uint64{make([]uint64, 16), make([]uint64, 16)}
		grids[b][0][3] = 7
	}
	if err := Figure14CSV(dir, grids); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "figure14.csv"))
	if len(got) != 1+2*8 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[1][2+3] != "7" {
		t.Fatalf("grid cell lost: %v", got[1])
	}
	// The lane columns follow the grid, not Table 3's width.
	if err := Figure14CSV(dir, map[string][][]uint64{"FFT": {make([]uint64, 4)}}); err != nil {
		t.Fatal(err)
	}
	if got := readCSV(t, filepath.Join(dir, "figure14.csv")); len(got[0]) != 2+4 || len(got[1]) != 2+4 {
		t.Fatalf("4-lane grid written as %v", got)
	}
}

func TestEnergyAndAblationCSV(t *testing.T) {
	dir := t.TempDir()
	if err := EnergyCSV(dir, []EnergyRow{{Bench: "LU", Conv: 1, DWS: 0.96, SlipBB: 1.0}}); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "figure19.csv"))
	if len(got) != 2 || got[1][2] != "0.96" {
		t.Fatalf("energy csv = %v", got)
	}
	per := map[string]float64{}
	for _, b := range BenchNames() {
		per[b] = 1.1
	}
	if err := AblationCSV(dir, []AblationRow{{Name: "full", HMean: 1.06, Per: per}}); err != nil {
		t.Fatal(err)
	}
	got = readCSV(t, filepath.Join(dir, "ablation.csv"))
	if len(got) != 2 || got[1][0] != "full" {
		t.Fatalf("ablation csv = %v", got)
	}
}

func TestFigure18CSV(t *testing.T) {
	dir := t.TempDir()
	pts := []Figure18Point{{Setup: "8-way 32KB", Config: "16x4", Scheme: wpu.SchemeRevive, Speedup: 1.06}}
	if err := Figure18CSV(dir, pts); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "figure18.csv"))
	if len(got) != 2 || got[1][3] != "1.06" {
		t.Fatalf("fig18 csv = %v", got)
	}
}

func TestWriteCSVCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := writeCSV(dir, "x.csv", []string{"a"}, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.csv")); err != nil {
		t.Fatal(err)
	}
}
