package report

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// Cost-model exhibit (static analysis): the static cycle bounds, the
// predicted stall split, and the static scheme ranking of
// program.CostModel confronted with measured runs. The bounds table
// shows, per benchmark under the Conv baseline, measured TickCycles
// inside the static [lo, hi] claim and the measured vs predicted
// four-way stall composition; the ranking table grades the static
// 13-scheme ordering against the measured-best scheme over all 13
// schemes (the agreement criterion EXPERIMENTS.md records: measured
// best inside the static top 3).

// CostModelRow is one (benchmark, scheme) point: measured cycles against
// the static claim, plus both ranks. Static quantities are summed over
// the benchmark's kernel launches.
type CostModelRow struct {
	Bench    string
	Scheme   wpu.Scheme
	Cycles   uint64 // measured summed TickCycles
	TickLo   int64  // static lower bound
	TickHi   int64  // static upper bound (≥ program.CostInf: unbounded)
	InBounds bool
	Est      float64 // static scheme estimate (heuristic, lower = better)
	StatRank int     // 1-based rank of the scheme in the static ordering
	MeasRank int     // 1-based rank by measured cycles
}

// benchCost is the static side for one benchmark: bounds, exposure-
// weighted predicted split, and per-scheme estimates summed over the
// benchmark's launches.
type benchCost struct {
	tickLo, tickHi int64
	pred           [4]float64
	est            map[wpu.Scheme]float64
}

// holds reports whether a measured cycle count is inside the static claim.
func (bc *benchCost) holds(cycles uint64) bool {
	return int64(cycles) >= bc.tickLo && (bc.tickHi >= program.CostInf || int64(cycles) <= bc.tickHi)
}

// staticBenchCosts computes the static cost models of every benchmark's
// launches (no simulation) under the given machine configuration.
func staticBenchCosts(cfg sim.Config) (map[string]*benchCost, error) {
	out := make(map[string]*benchCost)
	type mkey struct {
		prog    *program.Program
		threads int
	}
	models := make(map[mkey]*program.CostModel)
	for _, spec := range workloads.All() {
		pl, err := spec.Plan(cfg)
		if err != nil {
			return nil, err
		}
		bc := &benchCost{est: make(map[wpu.Scheme]float64)}
		out[spec.Name] = bc
		var predW [4]float64
		var wsum float64
		for i, p := range pl.Progs {
			k := mkey{p, pl.Threads[i]}
			m := models[k]
			if m == nil {
				m = p.CostModelFor(sim.CostParamsFor(cfg, pl.Threads[i]))
				models[k] = m
			}
			bc.tickLo += m.Ticks.Lo
			if bc.tickHi < program.CostInf {
				if m.Ticks.Unbounded() {
					bc.tickHi = program.CostInf
				} else {
					bc.tickHi += m.Ticks.Hi
				}
			}
			var w float64 // exposure weight: the launch's baseline estimate
			for _, sc := range m.Ranking {
				bc.est[wpu.Scheme(sc.Scheme)] += sc.Est
				if sc.Scheme == string(wpu.SchemeConv) {
					w = sc.Est
				}
			}
			for i := range predW {
				predW[i] += m.Predicted[i] * w
			}
			wsum += w
		}
		if wsum > 0 {
			for i := range predW {
				bc.pred[i] = predW[i] / wsum
			}
		}
	}
	return out, nil
}

// CostModel runs the suite under all 13 schemes and prints the
// bounds-vs-measured table and the static-vs-measured ranking table; the
// returned rows feed CostModelCSV.
func (s *Session) CostModel(w io.Writer) ([]CostModelRow, error) {
	static, err := staticBenchCosts(DefaultKnobs(wpu.SchemeConv).Config())
	if err != nil {
		return nil, err
	}
	res, err := s.Suite(BenchNames(), defaults(wpu.AllSchemes...)...)
	if err != nil {
		return nil, err
	}

	ticks := make(map[wpu.Scheme][]*Result) // scheme -> the suite under it, for Stats.TickCycles
	for i, sc := range wpu.AllSchemes {
		ticks[sc] = res[i]
	}

	fmt.Fprintln(w, "Cost model (static analysis): measured cycles vs static bounds, Conv baseline")
	fmt.Fprintln(w, "(frac columns: measured/predicted share of busy, coherent-memory, divergent-memory, barrier cycles)")
	t := newTable(w, "bench", "cycles", "static bound", "in", "busy", "mem_coh", "mem_div", "barrier")
	for bi, b := range BenchNames() {
		bc := static[b]
		st := &ticks[wpu.SchemeConv][bi].Stats
		bk := st.CycleBuckets()
		cell := func(i int) string {
			return fmt.Sprintf("%.2f/%.2f", safeFrac(bk[i], st.TickCycles), bc.pred[i])
		}
		t.row(b, strconv.FormatUint(st.TickCycles, 10), program.CostInterval{Lo: bc.tickLo, Hi: bc.tickHi}.String(),
			okMark(bc.holds(st.TickCycles)), cell(0), cell(1), cell(2), cell(3))
	}
	t.flush()

	var rows []CostModelRow
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Static scheme ranking vs measured best (agreement: measured best in static top 3)")
	rt := newTable(w, "bench", "measured best", "static top 3", "rank", "agree")
	agreed := 0
	for bi, b := range BenchNames() {
		bc := static[b]
		statOrder := append([]wpu.Scheme(nil), wpu.AllSchemes...)
		sort.SliceStable(statOrder, func(i, j int) bool { return bc.est[statOrder[i]] < bc.est[statOrder[j]] })
		measOrder := append([]wpu.Scheme(nil), wpu.AllSchemes...)
		sort.SliceStable(measOrder, func(i, j int) bool {
			return ticks[measOrder[i]][bi].Stats.TickCycles < ticks[measOrder[j]][bi].Stats.TickCycles
		})
		statRank := make(map[wpu.Scheme]int)
		for i, sc := range statOrder {
			statRank[sc] = i + 1
		}
		for i, sc := range measOrder {
			cycles := ticks[sc][bi].Stats.TickCycles
			rows = append(rows, CostModelRow{
				Bench: b, Scheme: sc, Cycles: cycles,
				TickLo: bc.tickLo, TickHi: bc.tickHi, InBounds: bc.holds(cycles),
				Est: bc.est[sc], StatRank: statRank[sc], MeasRank: i + 1,
			})
		}
		best := measOrder[0]
		rank := statRank[best]
		agree := rank <= 3
		if agree {
			agreed++
		}
		top3 := fmt.Sprintf("%s < %s < %s", statOrder[0], statOrder[1], statOrder[2])
		rt.row(b, string(best), top3, strconv.Itoa(rank), okMark(agree))
	}
	rt.flush()
	fmt.Fprintf(w, "agreement: %d/%d benchmarks\n", agreed, len(BenchNames()))
	return rows, nil
}

func okMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// CostModelCSV writes the full (benchmark, scheme) grid.
func CostModelCSV(dir string, rows []CostModelRow) error {
	header := []string{"bench", "scheme", "cycles", "tick_lo", "tick_hi", "in_bounds", "static_est", "static_rank", "measured_rank"}
	var out [][]string
	for _, r := range rows {
		hi := "inf"
		if r.TickHi < program.CostInf {
			hi = strconv.FormatInt(r.TickHi, 10)
		}
		in := "0"
		if r.InBounds {
			in = "1"
		}
		out = append(out, []string{
			r.Bench, string(r.Scheme), strconv.FormatUint(r.Cycles, 10),
			strconv.FormatInt(r.TickLo, 10), hi, in,
			fs(r.Est), strconv.Itoa(r.StatRank), strconv.Itoa(r.MeasRank),
		})
	}
	return writeCSV(dir, "costmodel.csv", header, out)
}
