package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wpu"
)

// TestCostModelExhibit pins the exhibit text byte-for-byte (the static
// side is pure analysis and the measured side is the deterministic
// simulator, so the table is reproducible) and checks the row grid:
// every (benchmark, scheme) point present once and every measured cycle
// count inside the static bounds.
func TestCostModelExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession()
	var buf bytes.Buffer
	rows, err := s.CostModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if want := len(BenchNames()) * len(wpu.AllSchemes); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := map[[2]string]bool{}
	for _, r := range rows {
		if !r.InBounds {
			t.Errorf("%s/%s: measured %d outside static bound [%d,%d]",
				r.Bench, r.Scheme, r.Cycles, r.TickLo, r.TickHi)
		}
		k := [2]string{r.Bench, string(r.Scheme)}
		if seen[k] {
			t.Errorf("%s/%s: duplicate row", r.Bench, r.Scheme)
		}
		seen[k] = true
	}

	path := filepath.Join("testdata", "costmodel_exhibit.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("exhibit drifted from %s (run with -update to regenerate)\ngot:\n%s", path, buf.String())
	}
}

func TestCostModelCSV(t *testing.T) {
	dir := t.TempDir()
	rows := []CostModelRow{
		{Bench: "Filter", Scheme: wpu.SchemeConv, Cycles: 100,
			TickLo: 10, TickHi: 1000, InBounds: true},
	}
	if err := CostModelCSV(dir, rows); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "costmodel.csv"))
	if len(got) != 2 || len(got[1]) != 6 {
		t.Fatalf("CSV %q, want a header and one row of 6 cells", got)
	}
	if got[1][0] != "Filter" || got[1][1] != "Conv" || got[1][2] != "100" ||
		got[1][3] != "10" || got[1][4] != "1000" || got[1][5] != "1" {
		t.Fatalf("row %q", got[1])
	}
}
