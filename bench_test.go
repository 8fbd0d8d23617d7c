package repro

import (
	"io"
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
// run, quick Figure 18 grid) through the parallel executor — the baseline
// perf snapshot future PRs compare against (see EXPERIMENTS.md). Run as:
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

// BenchmarkFullReportShort is the end-to-end half of the `make
// bench-check` CI gate (cmd/dwsbench): Table 1 regenerated from a cold
// in-memory session — eight full simulations touching every kernel — whose
// allocation count the gate holds, and the denominator of its
// ObsOverhead/off ratio.
func BenchmarkFullReportShort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.NewSession().Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkObsOverhead measures the cost of the internal/obs hooks on a
// KMeans run (the heaviest single benchmark): "off" is the production
// path (nil sink — every emission site reduces to one nil check), "on"
// attaches a full event trace plus timeline sampler. The acceptance bar
// is that "off" stays within 2% of the pre-instrumentation baseline
// recorded in EXPERIMENTS.md; timing is asserted there, not here, because
// wall-clock asserts in tests are flaky. Run as:
//
//	go test -bench ObsOverhead -benchtime 20x -run '^$' .
func BenchmarkObsOverhead(b *testing.B) {
	k := report.DefaultKnobs(wpu.SchemeRevive)
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := report.NewSession()
			if _, err := s.Run("KMeans", k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		var events int
		for i := 0; i < b.N; i++ {
			s := report.NewSession()
			tr := obs.New(1000)
			if _, err := s.RunTraced("KMeans", k, tr); err != nil {
				b.Fatal(err)
			}
			events = len(tr.Events)
		}
		b.ReportMetric(float64(events), "events")
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall-second) on the default configuration — useful when
// tuning the simulator itself rather than reproducing exhibits.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		s := report.NewSession()
		r, err := s.Run("Filter", report.DefaultKnobs(wpu.SchemeRevive))
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}
