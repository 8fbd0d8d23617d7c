// Package report reproduces every table and figure of the paper's
// evaluation: it sweeps configurations, runs the benchmark suite, verifies
// results, and renders the same rows/series the paper reports. Each
// FigureNN/TableNN function corresponds to one exhibit (see DESIGN.md's
// experiment index) and returns structured data alongside its text
// rendering so tests and the bench harness can assert on shapes.
//
// Concurrency: a Session is safe for concurrent use by multiple
// goroutines. Run deduplicates identical in-flight simulations
// singleflight-style — concurrent callers asking for the same
// (benchmark, Knobs) point block on one simulation and share its Result.
// The exhibit drivers exploit this through prefetch (see runner.go),
// which fans a figure's full job set out over a bounded worker pool and
// then renders from the warm cache, so output bytes are identical at any
// parallelism level.
package report

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// Result captures one benchmark × configuration run.
type Result struct {
	Bench  string
	Scheme wpu.Scheme
	Cycles uint64
	Stats  wpu.Stats
	L1     mem.L1Stats
	L2     mem.L2Stats
	// Interconnect and memory traffic behind the caches, for the
	// machine-readable run document (rundoc.go).
	XbarTransfers  uint64
	DRAMAccesses   uint64
	DRAMWritebacks uint64
	Energy         energy.Breakdown
}

// CacheStats counts how Session.Run requests were satisfied.
type CacheStats struct {
	MemHits  uint64 `json:"mem_hits"`  // served from the in-memory cache (or joined in flight)
	DiskHits uint64 `json:"disk_hits"` // loaded from the on-disk store
	Misses   uint64 `json:"misses"`    // simulations actually executed
	Traced   uint64 `json:"traced"`    // of the misses, runs forced live by an attached trace
}

// Session caches runs so figures sharing configurations (every figure
// reuses the Conv baseline) do not repeat simulations. It is safe for
// concurrent use; see the package comment.
type Session struct {
	mu    sync.Mutex
	cache map[Job]*inflight // keyed by the point itself: a memory hit formats nothing
	stats CacheStats

	jobs  int    // worker-pool width for prefetch (0 = GOMAXPROCS)
	store *Store // optional cross-process result store

	// OnSystem, when set, observes every machine immediately before it runs
	// the Job it is given — the live-metrics hook, which labels the run's
	// snapshots with it. The function it returns (nil for none) is called on
	// the same goroutine once the run has ended, successfully or not, and is
	// the hook's last chance to look at the machine: afterwards it is
	// recycled for another run (see machines), so nothing may hold on to it.
	// OnSystem must be set before the first Run; it is called from the
	// executor's worker goroutines, so it must be safe for concurrent use.
	OnSystem func(Job, *sim.System) (finish func())
}

// inflight is one cache slot: done closes once r/err are final, so
// concurrent requests for the same key join a single simulation.
type inflight struct {
	done   chan struct{}
	r      Result
	err    error
	source string // provenance: "simulated", "disk-store", or "traced-live"
}

// Option configures a Session.
type Option func(*Session)

// WithJobs bounds the prefetch worker pool. n <= 0 means
// runtime.GOMAXPROCS(0).
func WithJobs(n int) Option { return func(s *Session) { s.jobs = n } }

// WithStore attaches a persistent on-disk result store: Run consults it
// before simulating and saves every fresh result into it.
func WithStore(st *Store) Option { return func(s *Session) { s.store = st } }

// NewSession returns an empty run cache.
func NewSession(opts ...Option) *Session {
	s := &Session{cache: make(map[Job]*inflight)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Jobs returns the effective worker-pool width.
func (s *Session) Jobs() int {
	if s.jobs > 0 {
		return s.jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the cache counters.
func (s *Session) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Run simulates one benchmark under the given knobs (cached, singleflight
// deduplicated, safe for concurrent use). Errors are not memoized: a
// failed run is evicted so a later call may retry, though concurrent
// callers joined to the failing run all observe its error. A run that
// panics counts as failed for those joined to it and for the cache, and
// the panic continues up the goroutine that ran it.
func (s *Session) Run(bench string, k Knobs) (Result, error) {
	r, err := s.slot(Job{bench, k})
	if err != nil {
		return Result{}, err
	}
	return *r, nil
}

// slot is Run without the copy: the Result it returns is the session's own
// cache slot, final once slot returns and shared by every caller, so it is
// read-only.
func (s *Session) slot(job Job) (*Result, error) {
	s.mu.Lock()
	if c, ok := s.cache[job]; ok {
		s.stats.MemHits++
		s.mu.Unlock()
		<-c.done
		return &c.r, c.err
	}
	c := &inflight{done: make(chan struct{})}
	s.cache[job] = c
	s.mu.Unlock()

	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("panic: %v", r)
		}
		close(c.done)
		if c.err != nil {
			s.mu.Lock()
			delete(s.cache, job)
			s.mu.Unlock()
		}
		if r != nil {
			panic(r)
		}
	}()
	c.r, c.source, c.err = s.simulate(job)
	return &c.r, c.err
}

// Suite is the one way an exhibit or a sweep evaluates its points: every
// benchmark of benches at every point, simulated on the prefetch pool, and
// handed back as [point][bench] in the order given. The Results are the
// session's cache slots (see slot): read-only, and never copied. On an
// error nothing is returned, not the points that did run.
func (s *Session) Suite(benches []string, points ...Knobs) ([][]*Result, error) {
	jobs := make([]Job, 0, len(points)*len(benches))
	for _, k := range points {
		for _, b := range benches {
			jobs = append(jobs, Job{b, k})
		}
	}
	if err := s.prefetch(jobs); err != nil {
		return nil, err
	}
	flat := make([]*Result, len(jobs))
	for i, j := range jobs {
		var err error
		if flat[i], err = s.slot(j); err != nil {
			return nil, err
		}
	}
	out := make([][]*Result, len(points))
	for p := range out {
		out[p] = flat[p*len(benches) : (p+1)*len(benches)]
	}
	return out, nil
}

// RunTraced simulates one benchmark with the observability sink tr
// attached. It bypasses the read side of both the in-memory cache and the
// on-disk store: a cache hit would skip the simulation entirely and hand
// back a Result with tr still empty, which is exactly the silent failure
// the caller asked to avoid by attaching a sink. The fresh Result is
// still written through to both caches, so later untraced requests for
// the same point are free. RunTraced is not singleflight-deduplicated —
// tracing the same point twice runs twice, each call filling its own
// sink.
func (s *Session) RunTraced(bench string, k Knobs, tr *obs.Trace) (Result, error) {
	return s.RunTracedWith(bench, k, tr, s.OnSystem)
}

// RunTracedWith is RunTraced with a per-call machine hook replacing the
// session-wide OnSystem: the dwsimd streaming path uses it to add a
// per-job publisher to the System's observers without racing other jobs on
// one shared hook. The hook obeys OnSystem's contract: it runs on the
// goroutine that will drive the simulation, immediately before it starts,
// and must not touch the machine after its finish function has returned.
func (s *Session) RunTracedWith(bench string, k Knobs, tr *obs.Trace, onSys func(Job, *sim.System) func()) (Result, error) {
	s.mu.Lock()
	s.stats.Misses++
	s.stats.Traced++
	s.mu.Unlock()
	r, err := runLive(bench, k, tr, onSys)
	if err != nil {
		return Result{}, err
	}
	job := Job{bench, k}
	s.mu.Lock()
	if _, ok := s.cache[job]; !ok {
		c := &inflight{done: make(chan struct{}), r: r, source: "traced-live"}
		close(c.done)
		s.cache[job] = c
	}
	s.mu.Unlock()
	if s.store != nil {
		_ = s.store.Save(k.key(bench), r) // counted in StoreStats.SaveErrors; the run succeeded
	}
	return r, nil
}

// Provenance reports how this session obtained the result for (bench, k):
// "simulated", "disk-store", or "traced-live" — or "" when the point has
// not been run. It blocks if the run is still in flight.
func (s *Session) Provenance(bench string, k Knobs) string {
	s.mu.Lock()
	c, ok := s.cache[Job{bench, k}]
	s.mu.Unlock()
	if !ok {
		return ""
	}
	<-c.done
	return c.source
}

// simulate produces the Result for one point: from the disk store if
// possible, else by running the simulator (and persisting the outcome).
// The second return is the provenance string recorded on the cache slot.
// The string form of the key is built here, on the way to the store, and
// nowhere nearer the cache.
func (s *Session) simulate(j Job) (Result, string, error) {
	var key string
	if s.store != nil {
		key = j.Knobs.key(j.Bench)
		if r, ok := s.store.Load(key); ok {
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
			return r, "disk-store", nil
		}
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()

	r, err := runLive(j.Bench, j.Knobs, nil, s.OnSystem)
	if err != nil {
		return Result{}, "", err
	}
	if s.store != nil {
		_ = s.store.Save(key, r) // counted in StoreStats.SaveErrors; the run succeeded
	}
	return r, "simulated", nil
}

// machines is the process-wide free list of simulated machines. Building
// one costs a few megabytes and thousands of allocations (the 32 768-frame
// L2 array alone is 1.5 MB) and every exhibit is hundreds of short,
// independent simulations of nearly the same machine, so runLive recycles:
// it takes a machine, sim.System.Reset makes it indistinguishable from a new
// one, and a run that ends cleanly gives it back. The list is process-wide
// because many callers open a Session per simulation; it holds at most one
// machine per processor, which is all the concurrent runs that can make
// progress.
var machines struct {
	mu   sync.Mutex
	idle []*sim.System
}

// takeMachine returns a machine in the state sim.New(cfg) builds.
func takeMachine(cfg sim.Config) (*sim.System, error) {
	machines.mu.Lock()
	var sys *sim.System
	if n := len(machines.idle); n > 0 {
		sys, machines.idle[n-1] = machines.idle[n-1], nil
		machines.idle = machines.idle[:n-1]
	}
	machines.mu.Unlock()
	if sys == nil {
		return sim.New(cfg)
	}
	if err := sys.Reset(cfg); err != nil {
		return nil, err // cfg is invalid; the machine is dropped
	}
	return sys, nil
}

// releaseMachine gives back a machine whose run ended cleanly. It is reset
// here, without its trace sink, and not only when next taken: an idle
// machine must not keep a finished run's event trace or hooks alive.
// (Resetting a machine that is already clean costs next to nothing, so the
// Reset in takeMachine does not pay twice.)
func releaseMachine(sys *sim.System) {
	cfg := sys.Cfg
	cfg.Trace = nil
	if sys.Reset(cfg) != nil {
		return
	}
	machines.mu.Lock()
	if len(machines.idle) < runtime.GOMAXPROCS(0) {
		machines.idle = append(machines.idle, sys)
	}
	machines.mu.Unlock()
}

// runLive executes one simulation on a machine in freshly built state. tr,
// when non-nil, is attached to every component of the machine before the
// run (sim.Config.Trace), so the returned Result is accompanied by a filled
// event trace and timeline. The machine goes back to the free list only
// after a clean run: one that returned an error (deadlock, failed
// verification) or panicked leaves it for the garbage collector, whatever
// state it is in.
func runLive(bench string, k Knobs, tr *obs.Trace, onSys func(Job, *sim.System) func()) (Result, error) {
	cfg := k.Config()
	cfg.Trace = tr
	sys, err := takeMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := runOn(sys, bench, k, onSys)
	if err != nil {
		return Result{}, err
	}
	releaseMachine(sys)
	return r, nil
}

// runOn builds, runs and verifies bench on sys, which must be in freshly
// built state for k's configuration, and collects the Result. Everything
// that reads the machine happens in here, so the caller is free to recycle
// it the moment runOn returns.
func runOn(sys *sim.System, bench string, k Knobs, onSys func(Job, *sim.System) func()) (Result, error) {
	spec, err := workloads.ByNameScaled(bench, max(k.Scale, 1))
	if err != nil {
		return Result{}, err
	}
	inst, err := spec.Build(sys)
	if err != nil {
		return Result{}, err
	}
	var finish func()
	if onSys != nil {
		finish = onSys(Job{bench, k}, sys)
	}
	err = inst.Run(sys)
	if finish != nil {
		finish()
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s %s: %w", bench, k.key(bench), err)
	}
	if err := inst.Verify(); err != nil {
		return Result{}, fmt.Errorf("%s under %s: %w", bench, k.Scheme, err)
	}
	return Result{
		Bench:          bench,
		Scheme:         k.Scheme,
		Cycles:         sys.Cycles(),
		Stats:          sys.TotalStats(),
		L1:             sys.L1Stats(),
		L2:             sys.L2Stats(),
		XbarTransfers:  sys.Hier.Xbar.Transfers(),
		DRAMAccesses:   sys.Hier.DRAM.Accesses,
		DRAMWritebacks: sys.Hier.DRAM.WritebackN,
		Energy:         energy.Estimate(sys),
	}, nil
}

// benchNames is the suite in presentation order, listed once: every exhibit
// asks for it, and workloads.All builds eight Specs to answer. The capacity
// is clipped, so a caller's append copies.
var benchNames = func() (names []string) {
	for _, s := range workloads.All() {
		names = append(names, s.Name)
	}
	return names[:len(names):len(names)]
}()

// BenchNames lists the suite in presentation order; the slice is shared and
// read-only.
func BenchNames() []string { return benchNames }

// HarmonicMean returns the harmonic mean (the paper reports all means as
// harmonic means, §3.2). Zero or negative values are rejected by panic:
// they indicate a broken experiment.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			panic("report: harmonic mean of non-positive value")
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// table is a small fixed-width text table writer.
type table struct {
	w      io.Writer
	header []string
	widths []int
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	t := &table{w: w, header: header, widths: make([]int, len(header))}
	for i, h := range header {
		t.widths[i] = len(h)
	}
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i < len(t.widths) && len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *table) flush() {
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", t.widths[i], c)
		}
		fmt.Fprintln(t.w, strings.TrimRight(sb.String(), " "))
	}
	line(t.header)
	var sep []string
	for _, w := range t.widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pctS(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
