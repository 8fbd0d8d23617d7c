package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/wpu"
)

// Live holds the last refreshed snapshot of the running machines — the
// engine behind the daemon's /metrics. Every run refreshes it from a System
// observer each liveEvery cycles, labelled with its own benchmark and scheme
// (Attach); WriteMetrics only reads the last published copy under the
// mutex, so a scrape never blocks a machine. The zero Live is ready to use.
type Live struct {
	mu   sync.Mutex
	snap liveSnapshot
}

// liveSnapshot is one published state of a run: exactly the values
// WriteMetrics prints. The buckets sum to WPUCycles.
type liveSnapshot struct {
	Bench  string
	Scheme string
	Cycle  uint64
	Done   bool

	// Buckets is the cycle taxonomy summed over the WPUs, in
	// wpu.CycleBucketLabels order.
	Buckets       [8]uint64
	WPUCycles     uint64
	Instructions  uint64
	L1Accesses    uint64
	L1Misses      uint64
	L2Misses      uint64
	DRAMAccesses  uint64
	L2Outstanding int // busy L2 MSHRs
}

// liveEvery is the refresh period in cycles, coarse enough to be invisible
// in the run time.
const liveEvery = 4096

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
// into the snapshot and allocates nothing, so a scrape never shares mutable
// state with the still-running machine.
func (lv *Live) capture(sys *System, bench, scheme string, cycle uint64, done bool) {
	s := liveSnapshot{
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

// snapshot returns the last published state.
func (lv *Live) snapshot() liveSnapshot {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.snap
}

// WriteMetrics renders the last published snapshot in the Prometheus text
// exposition format. The dwsimd server appends it to its own metric
// families, so one scrape covers both the daemon and the run that refreshed
// last.
func (lv *Live) WriteMetrics(w io.Writer) {
	writeProm(w, lv.snapshot())
}

// writeProm renders the snapshot in the Prometheus text exposition
// format: the cycle taxonomy as one counter family plus the headline
// machine counters, every series labelled with the run's benchmark and
// scheme (none before the first refresh).
func writeProm(w io.Writer, s liveSnapshot) {
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
