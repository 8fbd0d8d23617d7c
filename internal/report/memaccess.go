package report

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// Memory-access-class exhibit (beyond paper): the static classifier's
// verdict per kernel against what the machine actually did. The static
// side counts memory instructions per access class over the suite's
// distinct kernels; the dynamic side sums, per class, the SIMD accesses
// issued from those sites and the line transactions they generated — so
// tx/access against the class's worst-case bound is the analysis's
// precision, measured on real runs. Conv gives the full-width (lockstep)
// numbers the bounds were computed for; ReviveSplit shows the same sites
// under warp splits and revival.

// memClassSchemes is the scheme pair the exhibit contrasts.
var memClassSchemes = []wpu.Scheme{wpu.SchemeConv, wpu.SchemeRevive}

// MemClassRow is one (scheme, access class) point, summed over the suite.
type MemClassRow struct {
	Scheme       wpu.Scheme
	Class        program.AccessClass
	StaticSites  int    // static memory instructions of this class across the suite's kernels
	Accesses     uint64 // dynamic SIMD accesses issued from those sites
	Transactions uint64 // line transactions those accesses generated
}

// staticClassSites counts memory instructions per access class over the
// suite's distinct kernels (workloads.Spec.Plan: no simulation).
func staticClassSites() ([program.NumAccessClasses]int, error) {
	var sites [program.NumAccessClasses]int
	for _, spec := range workloads.All() {
		pl, err := spec.Plan(sim.DefaultConfig())
		if err != nil {
			return sites, err
		}
		for _, p := range pl.Kernels {
			for _, a := range p.MemAccesses() {
				sites[a.AClass]++
			}
		}
	}
	return sites, nil
}

// MemAccessClasses runs the suite under Conv and DWS.ReviveSplit and
// prints the static-vs-dynamic class table; the returned rows feed
// MemAccessCSV.
func (s *Session) MemAccessClasses(w io.Writer) ([]MemClassRow, error) {
	sites, err := staticClassSites()
	if err != nil {
		return nil, err
	}
	res, err := s.Suite(BenchNames(), defaults(memClassSchemes...)...)
	if err != nil {
		return nil, err
	}
	var rows []MemClassRow
	for i, sc := range memClassSchemes {
		var total wpu.Stats
		for _, r := range res[i] {
			total.Add(&r.Stats)
		}
		for c := 0; c < program.NumAccessClasses; c++ {
			rows = append(rows, MemClassRow{
				Scheme:       sc,
				Class:        program.AccessClass(c),
				StaticSites:  sites[c],
				Accesses:     total.MemClassAccesses[c],
				Transactions: total.MemClassTransactions[c],
			})
		}
	}

	fmt.Fprintln(w, "Access classes (static analysis): classifier verdicts vs dynamic line transactions (suite totals)")
	fmt.Fprintln(w, "(sites: static memory instructions per class; tx/access: mean line transactions per SIMD access)")
	t := newTable(w, "scheme", "class", "sites", "accesses", "transactions", "tx/access")
	for _, r := range rows {
		txPer := "-"
		if r.Accesses > 0 {
			txPer = fmt.Sprintf("%.2f", float64(r.Transactions)/float64(r.Accesses))
		}
		t.row(string(r.Scheme), r.Class.String(), strconv.Itoa(r.StaticSites),
			strconv.FormatUint(r.Accesses, 10), strconv.FormatUint(r.Transactions, 10),
			txPer)
	}
	t.flush()
	return rows, nil
}

// MemAccessCSV writes the access-class exhibit rows.
func MemAccessCSV(dir string, rows []MemClassRow) error {
	header := []string{"scheme", "class", "static_sites", "accesses", "transactions", "tx_per_access"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			string(r.Scheme), r.Class.String(), strconv.Itoa(r.StaticSites),
			strconv.FormatUint(r.Accesses, 10), strconv.FormatUint(r.Transactions, 10),
			fs(safeFrac(r.Transactions, r.Accesses)),
		})
	}
	return writeCSV(dir, "memaccess.csv", header, out)
}
