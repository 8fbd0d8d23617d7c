package report

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/wpu"
)

func TestHarmonicMean(t *testing.T) {
	if hm := HarmonicMean([]float64{1, 1, 1}); hm != 1 {
		t.Fatalf("hmean(1,1,1) = %g", hm)
	}
	if hm := HarmonicMean([]float64{1, 2}); hm < 1.33 || hm > 1.34 {
		t.Fatalf("hmean(1,2) = %g, want 4/3", hm)
	}
	if hm := HarmonicMean(nil); hm != 0 {
		t.Fatalf("hmean(nil) = %g", hm)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-positive value")
		}
	}()
	HarmonicMean([]float64{1, 0})
}

func TestArithMean(t *testing.T) {
	if m := arithMean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("arithMean = %g", m)
	}
	if m := arithMean(nil); m != 0 {
		t.Fatalf("arithMean(nil) = %g", m)
	}
}

func TestDefaultKnobsMatchTable3(t *testing.T) {
	k := DefaultKnobs(wpu.SchemeConv)
	if k.WPUs != 4 || k.Width != 16 || k.Warps != 4 || k.L1KB != 32 || k.L1Assoc != 8 ||
		k.L2KB != 4096 || k.L2Lat != 30 || k.WST != 16 {
		t.Fatalf("default knobs deviate from Table 3: %+v", k)
	}
}

func TestKnobKeyDistinguishesConfigs(t *testing.T) {
	a := DefaultKnobs(wpu.SchemeConv)
	b := a
	b.L2Lat = 100
	if a.key("FFT") == b.key("FFT") {
		t.Fatal("different knobs share a cache key")
	}
	if a.key("FFT") == a.key("LU") {
		t.Fatal("different benchmarks share a cache key")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "name", "value")
	tb.row("a", "1.00")
	tb.row("longer-name", "2.00")
	tb.flush()
	out := buf.String()
	if !strings.Contains(out, "longer-name") || !strings.Contains(out, "----") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}

func TestBenchNames(t *testing.T) {
	names := BenchNames()
	if len(names) != 8 || names[0] != "FFT" || names[7] != "SVM" {
		t.Fatalf("BenchNames = %v", names)
	}
}

func TestSessionCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession()
	k := DefaultKnobs(wpu.SchemeConv)
	r1, err := s.Run("Filter", k)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("Filter", k)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("cached run differs")
	}
	if len(s.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(s.cache))
	}
}

// suiteSession is the one Session of the simulation-heavy exhibit tests
// (TestExhibitShapes, TestSweepDrivers, TestStallTaxonomySums,
// TestStallBreakdownExhibit): a point several of them ask for, the Conv
// baseline above all, is simulated once per test binary. Each exhibit still
// prefetches its points over the session's worker pool.
var suiteSession = sync.OnceValue(func() *Session { return NewSession() })

// The shape assertions below encode the paper's qualitative claims.
func TestExhibitShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := suiteSession()

	t.Run("Table1", func(t *testing.T) {
		rows, err := s.Table1(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 {
			t.Fatalf("%d rows, want 8", len(rows))
		}
		for _, r := range rows {
			if r.InstPerBranch <= 0 || r.InstPerBranch > 500 {
				t.Errorf("%s: implausible inst/branch %.1f", r.Bench, r.InstPerBranch)
			}
			if r.DivergentBranchPct < 0 || r.DivergentBranchPct > 1 {
				t.Errorf("%s: divergent-branch fraction out of range", r.Bench)
			}
		}
		byName := map[string]Table1Row{}
		for _, r := range rows {
			byName[r.Bench] = r
		}
		// Filter has no data-dependent branches; Merge and Short do.
		if byName["Filter"].DivergentBranchPct > 0.01 {
			t.Errorf("Filter divergent branches = %.3f, want ~0", byName["Filter"].DivergentBranchPct)
		}
		if byName["Merge"].DivergentBranchPct < 0.02 {
			t.Errorf("Merge divergent branches = %.3f, want noticeable", byName["Merge"].DivergentBranchPct)
		}
		// Every benchmark exhibits divergent memory accesses (Table 1's
		// bottom row ranges 60-88% in the paper).
		for _, r := range rows {
			if r.DivergentAccessPct <= 0 {
				t.Errorf("%s: no divergent memory accesses", r.Bench)
			}
		}
	})

	t.Run("Figure7", func(t *testing.T) {
		out, err := s.Figure7(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		stack, pc := out[0], out[1]
		if stack.Scheme != wpu.SchemeBranchOnlyStack || pc.Scheme != wpu.SchemeBranchOnly {
			t.Fatal("scheme order wrong")
		}
		// The paper's message: PC-based re-convergence beats stack-based
		// overall and never makes performance worse.
		if pc.HMean < stack.HMean {
			t.Errorf("PC-based h-mean %.2f < stack-based %.2f", pc.HMean, stack.HMean)
		}
		for b, sp := range pc.Per {
			if sp < 0.97 {
				t.Errorf("PC-based re-convergence harms %s (%.2f)", b, sp)
			}
		}
	})

	t.Run("Figure13", func(t *testing.T) {
		out, err := s.Figure13(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		get := func(sc wpu.Scheme) SchemeSpeedups {
			for _, o := range out {
				if o.Scheme == sc {
					return o
				}
			}
			t.Fatalf("missing %s", sc)
			return SchemeSpeedups{}
		}
		revive := get(wpu.SchemeRevive)
		aggress := get(wpu.SchemeAggress)
		// The paper's headline: the best combination is
		// subdivision=ReviveSplit + re-convergence=BranchBypass, it beats
		// Conv overall and does not harm any benchmark.
		if revive.HMean < 1.0 {
			t.Errorf("DWS.ReviveSplit h-mean %.2f < 1", revive.HMean)
		}
		for b, sp := range revive.Per {
			if sp < 0.94 {
				t.Errorf("DWS.ReviveSplit harms %s (%.2f)", b, sp)
			}
		}
		// AggressSplit over-subdivides and must not beat ReviveSplit.
		if aggress.HMean > revive.HMean+0.005 {
			t.Errorf("AggressSplit (%.3f) beats ReviveSplit (%.3f)", aggress.HMean, revive.HMean)
		}
	})

	t.Run("Figure14", func(t *testing.T) {
		grids, err := s.Figure14(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(grids) != 8 {
			t.Fatalf("%d grids, want 8", len(grids))
		}
		for b, g := range grids {
			var total uint64
			for _, row := range g {
				if len(row) != 16 {
					t.Fatalf("%s: row width %d, want 16 lanes", b, len(row))
				}
				for _, v := range row {
					total += v
				}
			}
			if total == 0 {
				t.Errorf("%s: no per-thread misses recorded", b)
			}
		}
	})

	t.Run("Figure19", func(t *testing.T) {
		rows, err := s.Figure19(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var dws []float64
		for _, r := range rows {
			dws = append(dws, r.DWS)
		}
		// Energy tracks runtime; DWS must save energy on average (§6.5).
		if m := arithMean(dws); m > 1.02 {
			t.Errorf("DWS mean energy ratio %.2f, want <= ~1", m)
		}
	})
}

// Smoke tests for the sweep/sensitivity drivers (the scheme-comparison
// drivers are covered by TestExhibitShapes): each runs its full benchmark
// sweep once and checks basic sanity of the returned series.
func TestSweepDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := suiteSession()

	t.Run("Figure1b", func(t *testing.T) {
		pts, err := s.breakdown(sweepRow("1b"), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 4 {
			t.Fatalf("%d points", len(pts))
		}
		if pts[0].NormTime != 1 {
			t.Fatalf("first point not normalised: %g", pts[0].NormTime)
		}
		for _, p := range pts {
			if p.MemStallFrac <= 0 || p.MemStallFrac >= 1 {
				t.Fatalf("%s: stall fraction %g out of range", p.Label, p.MemStallFrac)
			}
		}
	})

	t.Run("Figure15", func(t *testing.T) {
		pts, err := s.sensitivity(sweepRow("15"), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 4 {
			t.Fatalf("%d points", len(pts))
		}
		for _, p := range pts {
			// DWS must not lose overall at any associativity.
			if p.Speedup < 0.97 {
				t.Fatalf("%s: DWS/Conv = %g", p.Label, p.Speedup)
			}
		}
	})

	t.Run("Headline", func(t *testing.T) {
		var buf bytes.Buffer
		if err := s.Headline(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "speedup (h-mean)") {
			t.Fatalf("headline output: %q", buf.String())
		}
	})

	t.Run("Ablation", func(t *testing.T) {
		rows, err := s.Ablation(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("%d ablation rows", len(rows))
		}
		full, uncond := rows[0], rows[3]
		// Unconditional branch subdivision must be measurably worse than
		// the gated default — the ablation's reason to exist.
		if uncond.HMean >= full.HMean {
			t.Fatalf("unconditional (%.3f) not worse than gated (%.3f)", uncond.HMean, full.HMean)
		}
	})
}
