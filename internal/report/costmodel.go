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

// Cost-model exhibit (static analysis): the static cycle bounds of
// program.CostModel confronted with measured runs — per benchmark under
// every scheme, measured TickCycles inside the static [lo, hi] claim (what
// TestCostModelConcordance in internal/workloads proves per launch and per
// bucket). The table shows the Conv baseline; the rows and the CSV carry
// every scheme.

// CostModelRow is one (benchmark, scheme) point: measured cycles against
// the static claim, which is summed over the benchmark's kernel launches.
type CostModelRow struct {
	Bench    string
	Scheme   wpu.Scheme
	Cycles   uint64 // measured summed TickCycles
	TickLo   int64  // static lower bound
	TickHi   int64  // static upper bound (≥ program.CostInf: unbounded)
	InBounds bool
}

// staticTickBounds computes, for every benchmark, the static TickCycles
// bound summed over its launches (no simulation) under the given machine
// configuration.
func staticTickBounds(cfg sim.Config) (map[string]program.CostInterval, error) {
	out := make(map[string]program.CostInterval)
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
		var iv program.CostInterval
		for i, p := range pl.Progs {
			k := mkey{p, pl.Threads[i]}
			m := models[k]
			if m == nil {
				m = p.CostModelFor(sim.CostParamsFor(cfg, pl.Threads[i]))
				models[k] = m
			}
			iv.Lo += m.Ticks.Lo
			if !iv.Unbounded() {
				if m.Ticks.Unbounded() {
					iv.Hi = program.CostInf
				} else {
					iv.Hi += m.Ticks.Hi
				}
			}
		}
		out[spec.Name] = iv
	}
	return out, nil
}

// CostModel runs the suite under every scheme and prints the
// bounds-vs-measured table; the returned rows (per benchmark, fastest
// scheme first) feed CostModelCSV.
func (s *Session) CostModel(w io.Writer) ([]CostModelRow, error) {
	static, err := staticTickBounds(DefaultKnobs(wpu.SchemeConv).Config())
	if err != nil {
		return nil, err
	}
	res, err := s.Suite(BenchNames(), defaults(wpu.AllSchemes...)...)
	if err != nil {
		return nil, err
	}

	var rows []CostModelRow
	held := 0
	fmt.Fprintln(w, "Cost model (static analysis): measured cycles vs static bounds, Conv baseline")
	t := newTable(w, "bench", "cycles", "static bound", "in")
	for bi, b := range BenchNames() {
		iv := static[b]
		first := len(rows)
		for si, sc := range wpu.AllSchemes {
			cycles := res[si][bi].Stats.TickCycles
			in := iv.Contains(int64(cycles))
			if in {
				held++
			}
			rows = append(rows, CostModelRow{Bench: b, Scheme: sc, Cycles: cycles, TickLo: iv.Lo, TickHi: iv.Hi, InBounds: in})
			if sc == wpu.SchemeConv {
				t.row(b, strconv.FormatUint(cycles, 10), iv.String(), okMark(in))
			}
		}
		bench := rows[first:] // fastest scheme first
		sort.SliceStable(bench, func(i, j int) bool { return bench[i].Cycles < bench[j].Cycles })
	}
	t.flush()
	fmt.Fprintf(w, "all %d schemes: %d/%d (benchmark, scheme) points inside the static bound\n",
		len(wpu.AllSchemes), held, len(rows))
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
	header := []string{"bench", "scheme", "cycles", "tick_lo", "tick_hi", "in_bounds"}
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
		})
	}
	return writeCSV(dir, "costmodel.csv", header, out)
}
