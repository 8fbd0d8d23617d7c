package repro

import (
	"io"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/wpu"
)

// The benchmarks below regenerate the paper's tables and figures — one
// bench target per exhibit, as indexed in DESIGN.md. Each reports the
// exhibit's headline number as a custom metric so `go test -bench=.`
// doubles as the reproduction run. They are simulations, not
// micro-benchmarks: prefer -benchtime=1x.

func benchSession(b *testing.B) *report.Session {
	b.Helper()
	return report.NewSession()
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		rows, err := s.Table1(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var divAcc float64
		for _, r := range rows {
			divAcc += r.DivergentAccessPct
		}
		b.ReportMetric(100*divAcc/float64(len(rows)), "mean-div-access-%")
	}
}

func BenchmarkFigure1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure1a(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pts[len(pts)-1].MemStallFrac, "w16-memstall-%")
	}
}

func BenchmarkFigure1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure1b(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pts[len(pts)-1].MemStallFrac, "fullyassoc-memstall-%")
	}
}

func BenchmarkFigure1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure1c(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].NormTime, "16warps-normtime")
	}
}

func reportSchemeHMean(b *testing.B, out []report.SchemeSpeedups, scheme wpu.Scheme, metric string) {
	b.Helper()
	for _, o := range out {
		if o.Scheme == scheme {
			b.ReportMetric(o.HMean, metric)
			return
		}
	}
	b.Fatalf("scheme %s missing from results", scheme)
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		out, err := s.Figure7(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reportSchemeHMean(b, out, wpu.SchemeBranchOnly, "pc-based-hmean")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		out, err := s.Figure11(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reportSchemeHMean(b, out, wpu.SchemeReviveBL, "revive-bl-hmean")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		out, err := s.Figure13(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		reportSchemeHMean(b, out, wpu.SchemeRevive, "dws-revive-hmean")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		grids, err := s.Figure14(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(grids)), "benchmarks")
	}
}

func lastSpeedup(b *testing.B, pts []report.SensitivityPoint, err error, metric string) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(pts[len(pts)-1].Speedup, metric)
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure15(io.Discard)
		lastSpeedup(b, pts, err, "fullyassoc-speedup")
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure16(io.Discard)
		lastSpeedup(b, pts, err, "l2lat300-speedup")
	}
}

func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure17(io.Discard)
		lastSpeedup(b, pts, err, "l1-128kb-speedup")
	}
}

func BenchmarkFigure18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure18(io.Discard, true /* quick grid */)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(pts)), "grid-points")
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		rows, err := s.Figure19(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var dws float64
		for _, r := range rows {
			dws += r.DWS
		}
		b.ReportMetric(100*dws/float64(len(rows)), "dws-energy-%")
	}
}

func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure20(io.Discard)
		lastSpeedup(b, pts, err, "32slots-speedup")
	}
}

func BenchmarkFigure21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		pts, err := s.Figure21(io.Discard)
		lastSpeedup(b, pts, err, "wst64-speedup")
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
// in-memory session — eight full simulations touching every kernel — so
// wall-time regressions outside the event engine's micro-benchmarks
// (scheduler, caches, functional execution) are caught as well.
func BenchmarkFullReportShort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		if _, err := s.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// runFullReport regenerates every exhibit (quick Figure 18 grid) into
// io.Discard.
func runFullReport(s *report.Session) error {
	for _, e := range report.Exhibits {
		if err := e.Run(s, io.Discard, "", true); err != nil {
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

// BenchmarkAblation regenerates the beyond-paper ablation study (the
// design choices DESIGN.md documents: wait-merge, least-progressed-first
// scheduling, lazy branch gating, and the §8 predictive extension).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		rows, err := s.Ablation(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].HMean, "revive-hmean")
		b.ReportMetric(rows[len(rows)-1].HMean, "predictive-hmean")
	}
}
