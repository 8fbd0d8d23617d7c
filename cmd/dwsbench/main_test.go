package main

import (
	"strings"
	"testing"
)

// TestCompare: the gate decides `make ci`, so each of its verdicts is pinned —
// what passes, and the one line each kind of violation produces.
func TestCompare(t *testing.T) {
	base := Baseline{
		Allocs: map[string]int64{"HistRecord": 0, "FullReportShort": 1000, "ObsOverhead/off": 200, "ObsOverhead/on": 300},
		Ratios: map[string]float64{"ObsOverhead/off ÷ FullReportShort": 0.70, "ObsOverhead/on ÷ ObsOverhead/off": 1.40},
	}
	// What a clean run of one round measures; a case edits its own copy. The
	// times are three times those of the hour the ratios were taken in: only
	// ratios are gated.
	clean := func() map[string]result {
		return map[string]result{
			"HistRecord":      {ns: []float64{9}, allocs: 0},
			"FullReportShort": {ns: []float64{300e6}, allocs: 1000},
			"ObsOverhead/off": {ns: []float64{210e6}, allocs: 200},
			"ObsOverhead/on":  {ns: []float64{294e6}, allocs: 300},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(base *Baseline, got map[string]result)
		want []string // a substring of each expected failure, in order
	}{
		{name: "clean run on a slower host", edit: func(*Baseline, map[string]result) {}},
		{name: "zero-alloc baseline, one allocation",
			edit: func(_ *Baseline, got map[string]result) { got["HistRecord"] = result{ns: []float64{9}, allocs: 1} },
			want: []string{"HistRecord: 1 allocs/op, baseline 0"}},
		{name: "non-zero baseline within the bound",
			edit: func(_ *Baseline, got map[string]result) {
				got["FullReportShort"] = result{ns: []float64{300e6}, allocs: 1100}
			}},
		{name: "non-zero baseline past the bound",
			edit: func(_ *Baseline, got map[string]result) {
				got["FullReportShort"] = result{ns: []float64{300e6}, allocs: 1101}
			},
			want: []string{"FullReportShort: 1101 allocs/op, baseline 1000"}},
		{name: "ratio within its tolerance",
			edit: func(_ *Baseline, got map[string]result) {
				got["ObsOverhead/on"] = result{ns: []float64{1.67 * 210e6}, allocs: 300}
			}},
		{name: "ratio past its tolerance",
			edit: func(_ *Baseline, got map[string]result) {
				got["ObsOverhead/on"] = result{ns: []float64{1.69 * 210e6}, allocs: 300}
			},
			want: []string{"ObsOverhead/on ÷ ObsOverhead/off = 1.690, baseline 1.400"}},
		{name: "baseline ratio edited 20% below the measured one",
			edit: func(b *Baseline, _ map[string]result) { b.Ratios["ObsOverhead/off ÷ FullReportShort"] = 0.56 },
			want: []string{"ObsOverhead/off ÷ FullReportShort = 0.700, baseline 0.560"}},
		{name: "benchmark missing from the run",
			edit: func(_ *Baseline, got map[string]result) { delete(got, "HistRecord") },
			want: []string{"HistRecord: in baseline but not measured"}},
		{name: "benchmark and ratio missing from the baseline",
			edit: func(b *Baseline, got map[string]result) {
				got["New"] = result{ns: []float64{1}, allocs: 0}
				delete(b.Ratios, "ObsOverhead/on ÷ ObsOverhead/off")
			},
			want: []string{"New: measured but missing from baseline", "ObsOverhead/on ÷ ObsOverhead/off: ratio missing from baseline"}},
	} {
		b := Baseline{Allocs: base.Allocs, Ratios: map[string]float64{}}
		for k, v := range base.Ratios {
			b.Ratios[k] = v
		}
		got := clean()
		tc.edit(&b, got)
		failures := compare(b, got)
		if len(failures) != len(tc.want) {
			t.Errorf("%s: failures %q, want %d", tc.name, failures, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(failures[i], w) {
				t.Errorf("%s: failure %q does not mention %q", tc.name, failures[i], w)
			}
		}
	}
}

// TestRatioIsMedianOfRounds: a relGate compares the median of the per-round
// ratios, so one slow run of either side does not decide, and rounds that do
// not pair up are no measurement.
func TestRatioIsMedianOfRounds(t *testing.T) {
	rg := relGate{name: "a", ref: "b"}
	got := map[string]result{
		"a": {ns: []float64{30, 90, 20}},
		"b": {ns: []float64{10, 10, 20}},
	}
	if r, ok := rg.ratio(got); !ok || r != 3 {
		t.Errorf("ratio of rounds 3, 9, 1 = %v, %v; want the median 3", r, ok)
	}
	got["b"] = result{ns: []float64{10, 10}}
	if _, ok := rg.ratio(got); ok {
		t.Error("three rounds of one side against two of the other gave a ratio")
	}
}

// TestBenchLine: the name is captured without prefix and processor count, on
// one processor (no suffix) as on many.
func TestBenchLine(t *testing.T) {
	for line, want := range map[string][3]string{
		"BenchmarkObsOverhead/off-2   \t 1\t 85242762 ns/op\t 87509 events\t 338808 B/op\t 189 allocs/op": {"ObsOverhead/off", "85242762", "189"},
		"BenchmarkHistRecord   \t 2000000\t 2.478 ns/op\t 0 B/op\t 0 allocs/op":                           {"HistRecord", "2.478", "0"},
	} {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || [3]string{m[1], m[2], m[3]} != want {
			t.Errorf("%q parsed as %q, want %q", line, m, want)
		}
	}
}
