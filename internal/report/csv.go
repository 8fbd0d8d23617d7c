package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obs"
	"repro/internal/wpu"
)

// CSV export: every exhibit's structured data can be written as a CSV file
// for plotting (cmd/dwsreport -csv <dir>). One file per exhibit, one row
// per data point, benchmark columns where applicable.

// csvTo streams one header + rows table to any writer; writeCSV wraps it
// for the one-file-per-exhibit layout.
func csvTo(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return csvTo(f, header, rows)
}

func fs(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// TimelineCSV renders the interval timeline samples collected in tr as a
// CSV: one row per (sample cycle, WPU), with the interval's cycle
// accounting expressed as fractions so rows are comparable across
// interval lengths. Rows appear in collection order, which is
// deterministic (ascending cycle, then WPU id).
func TimelineCSV(w io.Writer, tr *obs.Trace) error {
	header := []string{
		"cycle", "wpu", "busy_frac", "memstall_frac", "otherstall_frac",
		"mean_simd_width", "wst_occupancy", "resident_splits",
		"slot_waiters", "l1_mshr", "l2_mshr",
	}
	var rows [][]string
	for _, s := range tr.Samples {
		total := s.Busy + s.StallMem + s.StallOther
		rows = append(rows, []string{
			strconv.FormatUint(s.Cycle, 10),
			strconv.Itoa(s.WPU),
			fs(safeFrac(s.Busy, total)),
			fs(safeFrac(s.StallMem, total)),
			fs(safeFrac(s.StallOther, total)),
			fs(s.MeanWidth()),
			strconv.Itoa(s.WSTOcc),
			strconv.Itoa(s.Resident),
			strconv.Itoa(s.SlotWaiters),
			strconv.Itoa(s.L1MSHR),
			strconv.Itoa(s.L2MSHR),
		})
	}
	return csvTo(w, header, rows)
}

// Table1CSV writes the divergence characterisation.
func Table1CSV(dir string, rows []Table1Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Bench, fs(r.InstPerBranch), fs(r.DivergentBranchPct),
			fs(r.InstPerMiss), fs(r.InstPerDivMiss), fs(r.DivergentAccessPct),
		})
	}
	return writeCSV(dir, "table1.csv",
		[]string{"benchmark", "inst_per_branch", "divergent_branch_frac",
			"inst_per_miss", "inst_per_div_miss", "divergent_access_frac"}, out)
}

// SweepCSV writes a Figure 1-style time-breakdown sweep.
func SweepCSV(dir, name string, pts []SweepPoint) error {
	var out [][]string
	for _, p := range pts {
		out = append(out, []string{p.Label, fs(p.NormTime), fs(p.BusyFrac), fs(p.MemStallFrac)})
	}
	return writeCSV(dir, name,
		[]string{"config", "norm_time", "busy_frac", "memstall_frac"}, out)
}

// SchemeCSV writes a Figure 7/11/13-style scheme comparison.
func SchemeCSV(dir, name string, out []SchemeSpeedups) error {
	header, rows := schemeRows(out, fs)
	return writeCSV(dir, name, header, rows)
}

// SensitivityCSV writes a Figure 15/16/17/20/21-style sweep.
func SensitivityCSV(dir, name string, pts []SensitivityPoint) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Label, fs(p.Conv), fs(p.DWS), fs(p.Speedup)})
	}
	return writeCSV(dir, name,
		[]string{"config", "conv", "dws", "dws_over_conv"}, rows)
}

// Figure18CSV writes the width×warps grid.
func Figure18CSV(dir string, pts []Figure18Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Setup, p.Config, string(p.Scheme), fs(p.Speedup)})
	}
	return writeCSV(dir, "figure18.csv",
		[]string{"cache_setup", "config", "scheme", "speedup"}, rows)
}

// EnergyCSV writes Figure 19's normalised energies.
func EnergyCSV(dir string, rows []EnergyRow) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Bench, fs(r.Conv), fs(r.DWS), fs(r.SlipBB)})
	}
	return writeCSV(dir, "figure19.csv",
		[]string{"benchmark", "conv", "dws", "slip_bb"}, out)
}

// Figure14CSV writes the per-thread miss grids (one row per warp, one
// column per lane of the widest grid).
func Figure14CSV(dir string, grids map[string][][]uint64) error {
	var rows [][]string
	lanes := 0
	for _, b := range BenchNames() {
		for wi, row := range grids[b] {
			cells := []string{b, strconv.Itoa(wi)}
			for _, v := range row {
				cells = append(cells, strconv.FormatUint(v, 10))
			}
			rows = append(rows, cells)
			lanes = max(lanes, len(row))
		}
	}
	header := []string{"benchmark", "warp"}
	for l := 0; l < lanes; l++ {
		header = append(header, fmt.Sprintf("lane%d", l))
	}
	return writeCSV(dir, "figure14.csv", header, rows)
}

// StallBreakdownCSV writes the stall-breakdown exhibit: one row per
// (benchmark, scheme) point plus the per-scheme means, bucket columns in
// wpu.CycleBucketLabels order.
func StallBreakdownCSV(dir string, rows []StallRow) error {
	header := append([]string{"benchmark", "scheme", "cycles"}, wpu.CycleBucketLabels[:]...)
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Bench, string(r.Scheme), strconv.FormatUint(r.Cycles, 10)}
		for _, f := range r.Frac {
			cells = append(cells, fs(f))
		}
		out = append(out, cells)
	}
	return writeCSV(dir, "stalls.csv", header, out)
}

// AblationCSV writes the ablation study.
func AblationCSV(dir string, rows []AblationRow) error {
	return writeCSV(dir, "ablation.csv", append([]string{"variant", "h_mean"}, BenchNames()...), ablationRows(rows, fs))
}
