package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/wpu"
)

// Live publishes the last refreshed snapshot of the running machines over
// HTTP — the engine behind `dwsim -httpobs` and the daemon's /metrics. Every
// run refreshes it from a System observer each liveEvery cycles, labelled
// with its own benchmark and scheme (Attach); HTTP handlers only read the
// last published copy under the mutex, so the endpoint never blocks a
// machine. /metrics is the Prometheus text format, every other path the
// same LiveSnapshot as indented JSON.
//
// Live carries no goroutines of its own: the caller owns the HTTP server
// (and its listener goroutine) so the simulator tree stays free of
// unmanaged concurrency.
type Live struct {
	mu   sync.Mutex
	snap LiveSnapshot
}

// LiveSnapshot is one published state of a run: exactly the values /metrics
// prints. The buckets sum to WPUCycles.
type LiveSnapshot struct {
	Bench  string `json:"bench,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Cycle  uint64 `json:"cycle"`
	Done   bool   `json:"done"`

	// Buckets is the cycle taxonomy summed over the WPUs, in
	// wpu.CycleBucketLabels order.
	Buckets       [8]uint64 `json:"cycle_buckets"`
	WPUCycles     uint64    `json:"wpu_cycles"`
	Instructions  uint64    `json:"instructions"`
	L1Accesses    uint64    `json:"l1_accesses"`
	L1Misses      uint64    `json:"l1_misses"`
	L2Misses      uint64    `json:"l2_misses"`
	DRAMAccesses  uint64    `json:"dram_accesses"`
	L2Outstanding int       `json:"l2_outstanding"` // busy L2 MSHRs
}

// liveEvery is the refresh period in cycles, coarse enough to be invisible
// in the run time.
const liveEvery = 4096

// NewLive returns a publisher refreshing every liveEvery cycles.
func NewLive() *Live { return &Live{} }

// Attach has sys refresh the snapshot every liveEvery cycles, labelled with
// bench and scheme, and returns the function that publishes the run's final
// state. Call that from the goroutine that drove the simulation, while the
// machine is still the run's own — report.Session.OnSystem calls it before
// recycling the machine.
func (lv *Live) Attach(sys *System, bench, scheme string) (finish func()) {
	sys.Observe(liveEvery, func(cycle uint64) { lv.capture(sys, bench, scheme, cycle, false) })
	return func() { lv.capture(sys, bench, scheme, sys.Cycles(), true) }
}

// capture runs on the simulation goroutine. It copies counters by value
// into the snapshot and allocates nothing, so HTTP readers never share
// mutable state with the still-running machine.
func (lv *Live) capture(sys *System, bench, scheme string, cycle uint64, done bool) {
	s := LiveSnapshot{
		Bench:         bench,
		Scheme:        scheme,
		Cycle:         cycle,
		Done:          done,
		L2Misses:      sys.Hier.L2.Stats.Misses,
		DRAMAccesses:  sys.Hier.DRAM.Accesses,
		L2Outstanding: sys.Hier.L2.OutstandingMisses(),
	}
	for _, w := range sys.WPUs {
		for i, v := range w.Stats.CycleBuckets() {
			s.Buckets[i] += v
		}
		s.WPUCycles += w.Stats.Cycles()
		s.Instructions += w.Stats.Issued
	}
	for _, c := range sys.Hier.L1s {
		s.L1Accesses += c.Stats.Accesses
		s.L1Misses += c.Stats.Misses
	}
	lv.mu.Lock()
	lv.snap = s
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
// families so one scrape covers both the daemon and the run that refreshed
// last.
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
// format: the cycle taxonomy as one counter family plus the headline
// machine counters, every series labelled with the run's benchmark and
// scheme (none before the first refresh).
func writeProm(w io.Writer, s LiveSnapshot) {
	var run []string
	if s.Bench != "" || s.Scheme != "" {
		run = []string{fmt.Sprintf("bench=%q,scheme=%q", s.Bench, s.Scheme)}
	}
	head := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	series := func(name string, v uint64, labels ...string) {
		if l := strings.Join(slices.Concat(run, labels), ","); l != "" {
			name += "{" + l + "}"
		}
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	head("dwsim_cycles_total", "counter", "Simulated cycles so far.")
	series("dwsim_cycles_total", s.Cycle)
	head("dwsim_cycle_bucket_total", "counter", "Top-down cycle attribution; the buckets sum to dwsim_wpu_cycles_total.")
	for i, v := range s.Buckets {
		series("dwsim_cycle_bucket_total", v, fmt.Sprintf("cause=%q", wpu.CycleBucketLabels[i]))
	}
	done := uint64(0)
	if s.Done {
		done = 1
	}
	for _, m := range []struct {
		name, typ, help string
		v               uint64
	}{
		{"dwsim_wpu_cycles_total", "counter", "Per-WPU ticks summed across WPUs.", s.WPUCycles},
		{"dwsim_instructions_total", "counter", "Warp-instructions issued.", s.Instructions},
		{"dwsim_l1_accesses_total", "counter", "L1 accesses.", s.L1Accesses},
		{"dwsim_l1_misses_total", "counter", "L1 misses.", s.L1Misses},
		{"dwsim_l2_misses_total", "counter", "L2 misses.", s.L2Misses},
		{"dwsim_dram_accesses_total", "counter", "DRAM accesses (fetches + writebacks).", s.DRAMAccesses},
		{"dwsim_l2_mshr_outstanding", "gauge", "Busy L2 MSHRs at the last snapshot.", uint64(s.L2Outstanding)},
		{"dwsim_run_done", "gauge", "Whether the labelled run has completed.", done},
	} {
		head(m.name, m.typ, m.help)
		series(m.name, m.v)
	}
}
