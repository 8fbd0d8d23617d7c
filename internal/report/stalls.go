package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/wpu"
)

// Stall-breakdown exhibit (§5.5): the top-down cycle taxonomy rendered as
// stacked bars per scheme, mean over the benchmark suite. This is the
// paper's "where did the cycles go" figure generalised to the full
// eight-bucket accounting: the paper only distinguishes busy vs waiting
// for memory, while the taxonomy further splits memory stalls into
// coherent vs divergent and exposes the DWS-specific structural stalls
// (WST full, scheduler-slot wait).

// stallSchemes is the scheme set the exhibit renders: the Figure 13
// comparison line-up plus the Conv baseline it is normalised against.
var stallSchemes = []wpu.Scheme{
	wpu.SchemeConv,
	wpu.SchemeBranchOnly,
	wpu.SchemeReviveMemOnly,
	wpu.SchemeAggress,
	wpu.SchemeLazy,
	wpu.SchemeRevive,
	wpu.SchemeSlip,
	wpu.SchemeSlipBranchBypass,
}

// StallRow is one (benchmark, scheme) point: the eight taxonomy buckets
// as fractions of the scheme's total cycles, in wpu.CycleBucketLabels
// order. The "mean" pseudo-benchmark rows carry the arithmetic mean of
// the per-benchmark fractions.
type StallRow struct {
	Bench  string
	Scheme wpu.Scheme
	Cycles uint64
	Frac   [8]float64
}

// stallBarGlyphs is the one-rune legend for the stacked text bars, in
// bucket order. Busy renders as '#' so the useful work stands out;
// memory stalls as upper/lower-case M (coherent/divergent).
var stallBarGlyphs = [8]byte{'#', 'M', 'm', 'B', 'I', 'W', 's', '.'}

// stallBar renders the fractions as a fixed-width stacked bar. Widths
// round down per bucket and the remainder is padded with spaces, so the
// bar length is constant and the output stays byte-deterministic.
func stallBar(frac [8]float64, width int) string {
	var sb strings.Builder
	for i, f := range frac {
		n := int(f * float64(width))
		for j := 0; j < n; j++ {
			sb.WriteByte(stallBarGlyphs[i])
		}
	}
	for sb.Len() < width {
		sb.WriteByte(' ')
	}
	return "|" + sb.String() + "|"
}

// StallBreakdown runs every benchmark under the Figure 13 scheme set at
// the default configuration and prints the mean cycle taxonomy per
// scheme as a stacked bar chart. It returns the full per-(benchmark,
// scheme) rows followed by the per-scheme means (Bench == "mean") for
// StallBreakdownCSV. Every run is checked against the accounting
// invariant StallSum() == Cycles().
func (s *Session) StallBreakdown(w io.Writer) ([]StallRow, error) {
	res, err := s.Suite(BenchNames(), defaults(stallSchemes...)...)
	if err != nil {
		return nil, err
	}
	var rows []StallRow
	var means []StallRow
	for i, sc := range stallSchemes {
		mean := StallRow{Bench: "mean", Scheme: sc}
		for _, r := range res[i] {
			st := &r.Stats
			if st.StallSum() != st.Cycles() {
				return nil, fmt.Errorf("%s/%s: taxonomy sum %d != cycles %d",
					r.Bench, sc, st.StallSum(), st.Cycles())
			}
			row := StallRow{Bench: r.Bench, Scheme: sc, Cycles: st.Cycles()}
			for b, v := range st.CycleBuckets() {
				row.Frac[b] = safeFrac(v, st.Cycles())
				mean.Frac[b] += row.Frac[b]
			}
			rows = append(rows, row)
		}
		for b := range mean.Frac {
			mean.Frac[b] /= float64(len(res[i]))
		}
		means = append(means, mean)
	}

	fmt.Fprintln(w, "Stall breakdown (§5.5): top-down cycle taxonomy per scheme (means over the suite)")
	fmt.Fprintln(w, "(bar legend: # busy, M mem-coherent, m mem-divergent, B barrier, I icache, W wst-full, s slot-wait, . idle)")
	header := append([]string{"scheme"}, wpu.CycleBucketLabels[:]...)
	header = append(header, "bar")
	t := newTable(w, header...)
	for _, m := range means {
		cells := []string{string(m.Scheme)}
		for _, f := range m.Frac {
			cells = append(cells, pctS(f))
		}
		cells = append(cells, stallBar(m.Frac, 40))
		t.row(cells...)
	}
	t.flush()
	return append(rows, means...), nil
}
