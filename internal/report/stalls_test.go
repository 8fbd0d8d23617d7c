package report

import (
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wpu"
)

// TestStallTaxonomySums is the accounting invariant's property test: on
// every benchmark under every named scheme, the eight taxonomy buckets
// sum exactly to the cycle count, and the legacy memory-stall fraction
// is exactly the two memory sub-buckets over the total.
func TestStallTaxonomySums(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := suiteSession()
	res, err := s.Suite(BenchNames(), defaults(wpu.AllSchemes...)...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range wpu.AllSchemes {
		for _, r := range res[i] {
			b := r.Bench
			st := r.Stats
			if st.Cycles() == 0 {
				t.Fatalf("%s/%s: no cycles", b, sc)
			}
			if got, want := st.StallSum(), st.Cycles(); got != want {
				t.Errorf("%s/%s: taxonomy sum %d != cycles %d", b, sc, got, want)
			}
			var bucketSum uint64
			for _, v := range st.CycleBuckets() {
				bucketSum += v
			}
			if bucketSum != st.StallSum() {
				t.Errorf("%s/%s: CycleBuckets sum %d != StallSum %d", b, sc, bucketSum, st.StallSum())
			}
			want := float64(st.StallMemCoherent+st.StallMemDivergent) / float64(st.Cycles())
			if got := st.MemStallFraction(); got != want {
				t.Errorf("%s/%s: MemStallFraction %v != mem sub-bucket sum %v", b, sc, got, want)
			}
		}
	}
}

func TestStallBreakdownExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := suiteSession()
	rows, err := s.StallBreakdown(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(stallSchemes) * (len(BenchNames()) + 1)
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	// The trailing rows are the per-scheme means, in scheme order.
	means := rows[len(rows)-len(stallSchemes):]
	byScheme := map[wpu.Scheme]StallRow{}
	for _, m := range means {
		if m.Bench != "mean" {
			t.Fatalf("trailing row is %q/%s, want a mean row", m.Bench, m.Scheme)
		}
		byScheme[m.Scheme] = m
	}
	for _, m := range means {
		var sum float64
		for _, f := range m.Frac {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: mean fractions sum to %v, want 1", m.Scheme, sum)
		}
	}
	// The paper's §5.5 claim: DWS.ReviveSplit trades memory-stall time
	// for busy time relative to Conv.
	conv, dws := byScheme[wpu.SchemeConv], byScheme[wpu.SchemeRevive]
	if dws.Frac[0] <= conv.Frac[0] {
		t.Errorf("DWS busy fraction %.3f not above Conv's %.3f", dws.Frac[0], conv.Frac[0])
	}
	if dws.Frac[2] >= conv.Frac[2] {
		t.Errorf("DWS divergent-stall fraction %.3f not below Conv's %.3f", dws.Frac[2], conv.Frac[2])
	}
}

func TestStallBar(t *testing.T) {
	bar := stallBar([8]float64{0.5, 0.25, 0.25, 0, 0, 0, 0, 0}, 8)
	if bar != "|####MMmm|" {
		t.Fatalf("bar = %q", bar)
	}
	// Rounding down must pad, never overflow the fixed width.
	bar = stallBar([8]float64{0.99, 0, 0, 0, 0, 0, 0, 0}, 10)
	if len(bar) != 12 || !strings.HasSuffix(bar, " |") {
		t.Fatalf("padded bar = %q", bar)
	}
}

func TestStallBreakdownCSV(t *testing.T) {
	dir := t.TempDir()
	rows := []StallRow{
		{Bench: "Filter", Scheme: wpu.SchemeConv, Cycles: 100,
			Frac: [8]float64{0.5, 0.3, 0.2, 0, 0, 0, 0, 0}},
		{Bench: "mean", Scheme: wpu.SchemeConv,
			Frac: [8]float64{0.5, 0.3, 0.2, 0, 0, 0, 0, 0}},
	}
	if err := StallBreakdownCSV(dir, rows); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, filepath.Join(dir, "stalls.csv"))
	if len(got) != 3 {
		t.Fatalf("%d CSV lines, want 3", len(got))
	}
	wantHeader := append([]string{"benchmark", "scheme", "cycles"}, wpu.CycleBucketLabels[:]...)
	if !reflect.DeepEqual(got[0], wantHeader) {
		t.Fatalf("header %q, want %q", got[0], wantHeader)
	}
	if got[1][0] != "Filter" || got[1][1] != "Conv" || got[1][2] != "100" || got[1][3] != "0.5" {
		t.Fatalf("row %q", got[1])
	}
}
