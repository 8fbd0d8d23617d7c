package report

import (
	"fmt"
	"io"

	"repro/internal/wpu"
)

// Every exhibit is written the same way (DESIGN.md "How an exhibit is
// written"): name the points, hand them to Session.Suite, reduce the
// [point][bench] results to rows, print the rows. The rows are returned so
// the CSV writer, the tests and the benchmarks read the same numbers.

// Table1Row characterises one benchmark's divergence behaviour (Table 1).
type Table1Row struct {
	Bench              string
	InstPerBranch      float64 // avg instructions between branches
	DivergentBranchPct float64 // fraction of branches that diverge
	InstPerMiss        float64 // avg instructions between missing accesses
	InstPerDivMiss     float64 // avg instructions between divergent misses
	DivergentAccessPct float64 // fraction of missing accesses that diverge
}

// Table1 reproduces the divergence characterisation under the conventional
// configuration.
func (s *Session) Table1(w io.Writer) ([]Table1Row, error) {
	res, err := s.Suite(BenchNames(), DefaultKnobs(wpu.SchemeConv))
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, r := range res[0] {
		st := &r.Stats
		rows = append(rows, Table1Row{
			Bench:              r.Bench,
			InstPerBranch:      safeFrac(st.Issued, st.Branches),
			DivergentBranchPct: safeFrac(st.DivBranch, st.Branches),
			InstPerMiss:        safeFrac(st.Issued, st.MemWithMiss),
			InstPerDivMiss:     safeFrac(st.Issued, st.MemDivergent),
			DivergentAccessPct: safeFrac(st.MemDivergent, st.MemWithMiss),
		})
	}
	fmt.Fprintln(w, "Table 1: frequency of branch divergence and SIMD cache misses (Conv, Table 3 config)")
	t := newTable(w, "benchmark", "inst/branch", "div branches", "inst/miss", "inst/div-miss", "div mem accesses")
	for _, r := range rows {
		t.row(r.Bench, f1(r.InstPerBranch), pctS(r.DivergentBranchPct),
			f1(r.InstPerMiss), f1(r.InstPerDivMiss), pctS(r.DivergentAccessPct))
	}
	t.flush()
	return rows, nil
}

func safeFrac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func arithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanOf is the arithmetic mean of f over xs.
func meanOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return arithMean(vals)
}

// defaults is the Table 3 machine under each of schemes.
func defaults(schemes ...wpu.Scheme) []Knobs {
	knobs := make([]Knobs, len(schemes))
	for i, sc := range schemes {
		knobs[i] = DefaultKnobs(sc)
	}
	return knobs
}

// Speedup returns the harmonic mean, over two rows of one Suite call, of
// base cycles / alt cycles per benchmark: the paper's mean speedup (§3.2).
func Speedup(base, alt []*Result) float64 {
	hm, _ := speedups(base, alt)
	return hm
}

// speedups is Speedup with the per-benchmark ratios by name.
func speedups(base, alt []*Result) (float64, map[string]float64) {
	per := make(map[string]float64, len(base))
	xs := make([]float64, len(base))
	for i, rb := range base {
		xs[i] = float64(rb.Cycles) / float64(alt[i].Cycles)
		per[rb.Bench] = xs[i]
	}
	return HarmonicMean(xs), per
}

// SchemeSpeedups holds per-benchmark speedups over Conv plus the h-mean.
type SchemeSpeedups struct {
	Scheme wpu.Scheme
	Per    map[string]float64
	HMean  float64
}

func (s *Session) schemeComparison(w io.Writer, title string, schemes ...wpu.Scheme) ([]SchemeSpeedups, error) {
	res, err := s.Suite(BenchNames(), append(defaults(wpu.SchemeConv), defaults(schemes...)...)...)
	if err != nil {
		return nil, err
	}
	out := make([]SchemeSpeedups, len(schemes))
	for i, sc := range schemes {
		hm, per := speedups(res[0], res[1+i])
		out[i] = SchemeSpeedups{Scheme: sc, Per: per, HMean: hm}
	}
	fmt.Fprintln(w, title)
	header, rows := schemeRows(out, f2)
	t := newTable(w, header...)
	for _, r := range rows {
		t.row(r...)
	}
	t.flush()
	return out, nil
}

// schemeRows lays a scheme comparison out for the text table and the CSV
// file alike: a column per scheme, a row per benchmark, then the h-means.
func schemeRows(out []SchemeSpeedups, format func(float64) string) (header []string, rows [][]string) {
	header, hmeans := []string{"benchmark"}, []string{"h-mean"}
	for _, o := range out {
		header, hmeans = append(header, string(o.Scheme)), append(hmeans, format(o.HMean))
	}
	for _, b := range BenchNames() {
		row := []string{b}
		for _, o := range out {
			row = append(row, format(o.Per[b]))
		}
		rows = append(rows, row)
	}
	return header, append(rows, hmeans)
}

// Figure7: DWS upon branch divergence with stack-based vs PC-based
// re-convergence, speedup over Conv.
func (s *Session) Figure7(w io.Writer) ([]SchemeSpeedups, error) {
	return s.schemeComparison(w,
		"Figure 7: DWS upon branch divergence — stack-based vs PC-based re-convergence (speedup over Conv)",
		wpu.SchemeBranchOnlyStack, wpu.SchemeBranchOnly)
}

// Figure11: memory-divergence subdivision schemes under BranchLimited
// re-convergence.
func (s *Session) Figure11(w io.Writer) ([]SchemeSpeedups, error) {
	return s.schemeComparison(w,
		"Figure 11: BranchLimited re-convergence yields little gain for all subdivision schemes (speedup over Conv)",
		wpu.SchemeAggressBL, wpu.SchemeLazyBL, wpu.SchemeReviveBL)
}

// Figure13: the full scheme comparison, including adaptive slip.
func (s *Session) Figure13(w io.Writer) ([]SchemeSpeedups, error) {
	return s.schemeComparison(w,
		"Figure 13: comparing DWS schemes and adaptive slip (speedup over Conv)",
		wpu.SchemeBranchOnly, wpu.SchemeReviveMemOnly, wpu.SchemeAggress, wpu.SchemeLazy,
		wpu.SchemeRevive, wpu.SchemeSlip, wpu.SchemeSlipBranchBypass)
}

// Headline prints the §5.5 summary numbers for DWS.ReviveSplit.
func (s *Session) Headline(w io.Writer) error {
	res, err := s.Suite(BenchNames(), defaults(wpu.SchemeConv, wpu.SchemeRevive)...)
	if err != nil {
		return err
	}
	conv, dws := res[0], res[1]
	stall := func(r *Result) float64 { return r.Stats.MemStallFraction() }
	width := func(r *Result) float64 { return r.Stats.MeanSIMDWidth() }
	energy := make([]float64, len(conv))
	for i, rc := range conv {
		energy[i] = dws[i].Energy.Total() / rc.Energy.Total()
	}
	fmt.Fprintf(w, "Headline (§5.5/§6.5): DWS.ReviveSplit speedup (h-mean) %.2fx; "+
		"memory-stall fraction %.0f%% -> %.0f%%; mean SIMD width %.1f -> %.1f; energy %.0f%% of Conv\n",
		Speedup(conv, dws), 100*meanOf(conv, stall), 100*meanOf(dws, stall),
		meanOf(conv, width), meanOf(dws, width), 100*arithMean(energy))
	return nil
}

// Figure14 prints the per-thread miss distribution (warps × lanes) for each
// benchmark as a 0-9 heat grid, normalised per benchmark.
func (s *Session) Figure14(w io.Writer) (map[string][][]uint64, error) {
	res, err := s.Suite(BenchNames(), DefaultKnobs(wpu.SchemeConv))
	if err != nil {
		return nil, err
	}
	out := make(map[string][][]uint64)
	fmt.Fprintln(w, "Figure 14: spatial distribution of memory divergence among SIMD threads")
	fmt.Fprintln(w, "(rows = warps of WPU 0..3 stacked, columns = lanes; digits 0-9 scale to the benchmark's max)")
	for _, r := range res[0] {
		grid := r.Stats.ThreadMisses
		out[r.Bench] = grid
		var max uint64
		for _, row := range grid {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
		fmt.Fprintf(w, "%s:\n", r.Bench)
		for _, row := range grid {
			line := make([]byte, len(row))
			for i, v := range row {
				d := byte('0')
				if max > 0 {
					d = byte('0') + byte(v*9/max)
				}
				line[i] = d
			}
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	return out, nil
}

// Figure18Point is one (cache setup, width×warps, scheme) h-mean speedup.
type Figure18Point struct {
	Setup   string
	Config  string
	Scheme  wpu.Scheme
	Speedup float64 // vs Conv 16×4 under the same cache setup
}

// Figure18 sweeps SIMD width and multithreading depth under four D-cache
// setups for Conv, DWS and Slip.BranchBypass.
func (s *Session) Figure18(w io.Writer, quick bool) ([]Figure18Point, error) {
	type setup struct {
		name  string
		kb    int
		assoc int
	}
	setups := []setup{
		{"8-way 32KB", 32, 8},
		{"fully-assoc 32KB", 32, 0},
		{"8-way 256KB", 256, 8},
		{"fully-assoc 256KB", 256, 0},
	}
	// The grid spans the paper's two regimes: a few wide warps (where DWS
	// shines) and many narrow warps (where latency is already hidden and
	// subdividing only costs utilisation, §6.4).
	pairs := [][2]int{{4, 8}, {4, 16}, {8, 2}, {8, 4}, {16, 1}, {16, 2}, {16, 4}}
	if quick {
		setups = setups[:2]
		pairs = [][2]int{{8, 4}, {16, 2}, {16, 4}}
	}
	schemes := []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive, wpu.SchemeSlipBranchBypass}

	// Per setup: its Conv 16x4 baseline, then pairs x schemes. The render
	// loops below walk res in the same order.
	var knobs []Knobs
	for _, su := range setups {
		k := DefaultKnobs(wpu.SchemeConv)
		k.L1KB, k.L1Assoc = su.kb, su.assoc
		knobs = append(knobs, k)
		for _, p := range pairs {
			k.Width, k.Warps = p[0], p[1]
			for _, sc := range schemes {
				k.Scheme = sc
				knobs = append(knobs, k)
			}
		}
	}
	res, err := s.Suite(BenchNames(), knobs...)
	if err != nil {
		return nil, err
	}

	var pts []Figure18Point
	fmt.Fprintln(w, "Figure 18: speedups across SIMD width x warps under different D-cache setups")
	fmt.Fprintln(w, "(h-means over the suite, normalised to Conv 16-wide x 4 warps under the same cache setup)")
	for _, su := range setups {
		base := res[0]
		res = res[1:]
		t := newTable(w, su.name, "Conv", "DWS", "Slip.BB")
		for _, p := range pairs {
			row := []string{fmt.Sprintf("%2d-wide x %d warps", p[0], p[1])}
			for _, sc := range schemes {
				hm := Speedup(base, res[0])
				res = res[1:]
				pts = append(pts, Figure18Point{Setup: su.name, Config: row[0], Scheme: sc, Speedup: hm})
				row = append(row, f2(hm))
			}
			t.row(row...)
		}
		t.flush()
		fmt.Fprintln(w)
	}
	return pts, nil
}

// EnergyRow is one benchmark's normalised energy under the three systems.
type EnergyRow struct {
	Bench  string
	Conv   float64 // always 1.0
	DWS    float64
	SlipBB float64
}

// Figure19: energy consumption normalised to Conv.
func (s *Session) Figure19(w io.Writer) ([]EnergyRow, error) {
	res, err := s.Suite(BenchNames(), defaults(wpu.SchemeConv, wpu.SchemeRevive, wpu.SchemeSlipBranchBypass)...)
	if err != nil {
		return nil, err
	}
	var rows []EnergyRow
	for i, rc := range res[0] {
		conv := rc.Energy.Total()
		rows = append(rows, EnergyRow{rc.Bench, 1, res[1][i].Energy.Total() / conv, res[2][i].Energy.Total() / conv})
	}
	fmt.Fprintln(w, "Figure 19: energy normalised to Conv (left to right: Conv, DWS, Slip.BranchBypass)")
	t := newTable(w, "benchmark", "Conv", "DWS", "Slip.BB")
	for _, r := range rows {
		t.row(r.Bench, f2(r.Conv), f2(r.DWS), f2(r.SlipBB))
	}
	t.row("mean", "1.00", f2(meanOf(rows, func(r EnergyRow) float64 { return r.DWS })),
		f2(meanOf(rows, func(r EnergyRow) float64 { return r.SlipBB })))
	t.flush()
	return rows, nil
}

// AblationRow quantifies one implementation design choice.
type AblationRow struct {
	Name  string
	HMean float64 // speedup over Conv with this variant
	Per   map[string]float64
}

// Ablation evaluates this implementation's design choices around
// DWS.ReviveSplit (beyond the paper: the paper fixes these implicitly):
// re-convergence of suspended groups at matching PCs (wait-merge),
// least-progressed-first scheduling and the laziness threshold on branch
// subdivision.
func (s *Session) Ablation(w io.Writer) ([]AblationRow, error) {
	full := DefaultKnobs(wpu.SchemeRevive)
	noMerge, noProg, uncond := full, full, full
	noMerge.NoWaitMerge = true
	noProg.NoProgSched = true
	uncond.BranchThresh = 1 << 20
	variants := []struct {
		name string
		k    Knobs
	}{
		{"DWS.ReviveSplit (full)", full},
		{"  - wait-merge", noMerge},
		{"  - least-progress sched", noProg},
		{"  unconditional branch split", uncond},
	}
	knobs := []Knobs{DefaultKnobs(wpu.SchemeConv)}
	for _, v := range variants {
		knobs = append(knobs, v.k)
	}
	res, err := s.Suite(BenchNames(), knobs...)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(variants))
	for i, v := range variants {
		hm, per := speedups(res[0], res[1+i])
		rows[i] = AblationRow{Name: v.name, HMean: hm, Per: per}
	}
	fmt.Fprintln(w, "Ablation: design choices of this implementation (speedup over Conv, h-mean and per benchmark)")
	t := newTable(w, append([]string{"variant", "h-mean"}, BenchNames()...)...)
	for _, r := range ablationRows(rows, f2) {
		t.row(r...)
	}
	t.flush()
	return rows, nil
}

// ablationRows lays the ablation out for the text table and the CSV file
// alike: a row per variant, its h-mean and a column per benchmark.
func ablationRows(rows []AblationRow, format func(float64) string) [][]string {
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Name, format(r.HMean)}
		for _, b := range BenchNames() {
			cells = append(cells, format(r.Per[b]))
		}
		out = append(out, cells)
	}
	return out
}
