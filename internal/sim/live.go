package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/mem"
	"repro/internal/wpu"
)

// Live publishes a periodically refreshed snapshot of a running System
// over HTTP — the engine behind `dwsim -httpobs`. The simulation
// goroutine refreshes the snapshot every liveEvery cycles from a System
// observer; HTTP handlers only ever read the last published copy under the
// mutex, so the endpoint never blocks the machine.
//
// Endpoints:
//
//	/metrics    Prometheus text format (counters + gauges)
//	everything else  the full LiveSnapshot as indented JSON
//
// Live carries no goroutines of its own: the caller owns the HTTP server
// (and its listener goroutine) so the simulator tree stays free of
// unmanaged concurrency. Under a concurrent session (-bench all -j N)
// every machine publishes into the same Live; the snapshot shows
// whichever run refreshed last, which is the intended "what is the
// simulator doing right now" semantics.
type Live struct {
	mu     sync.Mutex
	bench  string
	scheme string
	snap   LiveSnapshot
}

// LiveSnapshot is one published state of the machine. Cycle-taxonomy
// invariants hold within it: Total.StallSum() == Total.Cycles().
type LiveSnapshot struct {
	Bench  string `json:"bench,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Cycle  uint64 `json:"cycle"`
	Done   bool   `json:"done"`

	Total wpu.Stats   `json:"total"`
	WPUs  []wpu.Stats `json:"wpus"`
	L1    mem.L1Stats `json:"l1"`
	L2    mem.L2Stats `json:"l2"`

	L1Outstanding []int  `json:"l1_outstanding"` // busy L1 MSHRs per WPU
	L2Outstanding int    `json:"l2_outstanding"` // busy L2 MSHRs
	DRAMAccesses  uint64 `json:"dram_accesses"`
}

// liveEvery is the refresh period in cycles, coarse enough to be invisible
// in the run time.
const liveEvery = 4096

// NewLive returns a publisher refreshing every liveEvery cycles.
func NewLive() *Live { return &Live{} }

// SetMeta labels subsequent snapshots with the benchmark and scheme about
// to run.
func (lv *Live) SetMeta(bench, scheme string) {
	lv.mu.Lock()
	lv.bench, lv.scheme = bench, scheme
	lv.mu.Unlock()
}

// Attach has sys refresh the snapshot every liveEvery cycles and returns the
// function that publishes the run's final state. Call that from the
// goroutine that drove the simulation, while the machine is still the run's
// own — it has the shape of report.Session.OnSystem, which calls it before
// recycling the machine.
func (lv *Live) Attach(sys *System) (finish func()) {
	sys.Observe(liveEvery, func(cycle uint64) { lv.capture(sys, cycle, false) })
	return func() { lv.capture(sys, sys.Cycles(), true) }
}

// capture runs on the simulation goroutine. Everything placed in the
// snapshot is freshly allocated or deep-copied (Stats.Add copies the
// ThreadMisses slice) so HTTP readers never share mutable state with the
// still-running machine.
func (lv *Live) capture(sys *System, cycle uint64, done bool) {
	wpus := make([]wpu.Stats, len(sys.WPUs))
	out1 := make([]int, len(sys.WPUs))
	for i, w := range sys.WPUs {
		wpus[i].Add(&w.Stats)
		out1[i] = sys.Hier.L1s[i].OutstandingMisses()
	}
	var total wpu.Stats
	for i := range wpus {
		total.Add(&wpus[i])
	}
	snap := LiveSnapshot{
		Cycle:         cycle,
		Done:          done,
		Total:         total,
		WPUs:          wpus,
		L1:            sys.L1Stats(),
		L2:            sys.L2Stats(),
		L1Outstanding: out1,
		L2Outstanding: sys.Hier.L2.OutstandingMisses(),
		DRAMAccesses:  sys.Hier.DRAM.Accesses,
	}
	lv.mu.Lock()
	snap.Bench, snap.Scheme = lv.bench, lv.scheme
	lv.snap = snap
	lv.mu.Unlock()
}

// Snapshot returns the last published state.
func (lv *Live) Snapshot() LiveSnapshot {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.snap
}

// WriteMetrics renders the last published snapshot in the Prometheus text
// exposition format. It is the /metrics body of the standalone dwsim
// -httpobs endpoint, and the dwsimd server appends it to its own metric
// families so one scrape covers both the daemon and the machine it is
// currently simulating.
func (lv *Live) WriteMetrics(w io.Writer) {
	writeProm(w, lv.Snapshot())
}

// ServeHTTP implements the live endpoint.
func (lv *Live) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := lv.Snapshot()
	if r.URL.Path == "/metrics" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // best-effort: the peer may hang up
}

// writeProm renders the snapshot in the Prometheus text exposition
// format: the cycle taxonomy as one labelled counter family plus the
// headline machine counters.
func writeProm(w io.Writer, s LiveSnapshot) {
	labels := ""
	if s.Bench != "" || s.Scheme != "" {
		labels = fmt.Sprintf("bench=%q,scheme=%q", s.Bench, s.Scheme)
	}
	wrap := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	fmt.Fprintf(w, "# HELP dwsim_cycles_total Simulated cycles so far.\n# TYPE dwsim_cycles_total counter\n")
	fmt.Fprintf(w, "dwsim_cycles_total%s %d\n", wrap(""), s.Cycle)
	fmt.Fprintf(w, "# HELP dwsim_cycle_bucket_total Top-down cycle attribution; the buckets sum to dwsim_wpu_cycles_total.\n# TYPE dwsim_cycle_bucket_total counter\n")
	for i, v := range s.Total.CycleBuckets() {
		fmt.Fprintf(w, "dwsim_cycle_bucket_total%s %d\n", wrap(fmt.Sprintf("cause=%q", wpu.CycleBucketLabels[i])), v)
	}
	fmt.Fprintf(w, "# HELP dwsim_wpu_cycles_total Per-WPU ticks summed across WPUs.\n# TYPE dwsim_wpu_cycles_total counter\n")
	fmt.Fprintf(w, "dwsim_wpu_cycles_total%s %d\n", wrap(""), s.Total.Cycles())
	fmt.Fprintf(w, "# HELP dwsim_instructions_total Warp-instructions issued.\n# TYPE dwsim_instructions_total counter\n")
	fmt.Fprintf(w, "dwsim_instructions_total%s %d\n", wrap(""), s.Total.Issued)
	fmt.Fprintf(w, "# HELP dwsim_l1_accesses_total L1 accesses.\n# TYPE dwsim_l1_accesses_total counter\n")
	fmt.Fprintf(w, "dwsim_l1_accesses_total%s %d\n", wrap(""), s.L1.Accesses)
	fmt.Fprintf(w, "# HELP dwsim_l1_misses_total L1 misses.\n# TYPE dwsim_l1_misses_total counter\n")
	fmt.Fprintf(w, "dwsim_l1_misses_total%s %d\n", wrap(""), s.L1.Misses)
	fmt.Fprintf(w, "# HELP dwsim_l2_misses_total L2 misses.\n# TYPE dwsim_l2_misses_total counter\n")
	fmt.Fprintf(w, "dwsim_l2_misses_total%s %d\n", wrap(""), s.L2.Misses)
	fmt.Fprintf(w, "# HELP dwsim_dram_accesses_total DRAM accesses (fetches + writebacks).\n# TYPE dwsim_dram_accesses_total counter\n")
	fmt.Fprintf(w, "dwsim_dram_accesses_total%s %d\n", wrap(""), s.DRAMAccesses)
	fmt.Fprintf(w, "# HELP dwsim_l2_mshr_outstanding Busy L2 MSHRs at the last snapshot.\n# TYPE dwsim_l2_mshr_outstanding gauge\n")
	fmt.Fprintf(w, "dwsim_l2_mshr_outstanding%s %d\n", wrap(""), s.L2Outstanding)
	fmt.Fprintf(w, "# HELP dwsim_run_done Whether the labelled run has completed.\n# TYPE dwsim_run_done gauge\n")
	done := 0
	if s.Done {
		done = 1
	}
	fmt.Fprintf(w, "dwsim_run_done%s %d\n", wrap(""), done)
}
