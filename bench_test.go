package repro

import (
	"io"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/wpu"
)

// BenchmarkExhibit regenerates the paper's tables and figures, one
// sub-benchmark per entry of report.Exhibits (`-bench 'Exhibit/16'`;
// DESIGN.md's experiment index lists them), each from a cold session and
// with the quick Figure 18 grid. Each reports the exhibit's headline number
// (Exhibit.Metric) as a custom metric, so `go test -bench Exhibit` doubles
// as the reproduction run. They are simulations, not micro-benchmarks:
// prefer -benchtime=1x.
func BenchmarkExhibit(b *testing.B) {
	for _, e := range report.Exhibits {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				headline, err := e.Run(report.NewSession(), io.Discard, "", true)
				if err != nil {
					b.Fatal(err)
				}
				if e.Metric != "" {
					b.ReportMetric(headline, e.Metric)
				}
			}
		})
	}
}

// BenchmarkFullReport times the complete exhibit set (the whole dwsreport
// run, quick Figure 18 grid) through the parallel executor. Run as:
//
//	go test -bench FullReport -benchtime 1x -run '^$' .
//
// The j1 variant pins one worker; the default variant uses GOMAXPROCS
// workers, so the ratio is the executor's wall-clock speedup on this host.
func BenchmarkFullReport(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts []report.Option
	}{
		{"j1", []report.Option{report.WithJobs(1)}},
		{"jmax", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := report.NewSession(bc.opts...)
				if err := runFullReport(s); err != nil {
					b.Fatal(err)
				}
				st := s.Stats()
				b.ReportMetric(float64(st.Misses), "sims")
				b.ReportMetric(float64(st.Misses)/b.Elapsed().Seconds(), "sims/s")
			}
		})
	}
}

// runFullReport regenerates every exhibit (quick Figure 18 grid) into
// io.Discard.
func runFullReport(s *report.Session) error {
	for _, e := range report.Exhibits {
		if _, err := e.Run(s, io.Discard, "", true); err != nil {
			return err
		}
	}
	return nil
}

// kmeansRun runs KMeans under DWS.ReviveSplit (the heaviest single
// benchmark) on a cold session and returns the events it recorded. Untraced
// is the production path: nil sink, every emission site one nil check.
// Traced attaches a full event trace plus a 1000-cycle timeline sampler.
func kmeansRun(tb testing.TB, traced bool) int {
	s, k := report.NewSession(), report.DefaultKnobs(wpu.SchemeRevive)
	if !traced {
		if _, err := s.Run("KMeans", k); err != nil {
			tb.Fatal(err)
		}
		return 0
	}
	tr := obs.New(1000)
	if _, err := s.RunTraced("KMeans", k, tr); err != nil {
		tb.Fatal(err)
	}
	return len(tr.Events)
}

// TestEndToEndAllocs holds three whole simulations to at most 10 % over the
// allocation counts written here: Table 1 from a cold session (eight
// simulations, every kernel) and kmeansRun untraced and traced. Each count
// is the minimum of five one-shot measurements, each after a warm-up run of
// its own: a GC cycle that empties a pool makes a run allocate again, so a
// single reading can be high, while a regression raises the floor. After a
// warm-up in the same process the counts are far below those of a run in a
// fresh one (8 411, 3 302 and 3 430), which also prepares each benchmark and
// fills the machine's pools.
func TestEndToEndAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		pin  float64
		op   func()
	}{
		{"Table1", 301, func() {
			if _, err := report.NewSession().Table1(io.Discard); err != nil {
				t.Fatal(err)
			}
		}},
		{"KMeans untraced", 22, func() { kmeansRun(t, false) }},
		{"KMeans traced", 130, func() { kmeansRun(t, true) }},
	} {
		allocs := math.Inf(1)
		for range 5 {
			allocs = min(allocs, testing.AllocsPerRun(1, c.op))
		}
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > 1.1*c.pin {
			t.Errorf("%s: %.0f allocs, pinned at %.0f (+10 %% allowed)", c.name, allocs, c.pin)
		}
	}
}
