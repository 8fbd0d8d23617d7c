// Package sim assembles the full simulated machine of the paper: four
// 16-wide WPUs with four warps each, private L1 caches, a crossbar, a
// shared inclusive MESI-coherent L2, and DRAM (Table 3). It drives the
// cycle/event loop, coordinates kernel-wide barriers, and exposes the
// aggregate statistics the experiment harness consumes.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/wpu"
)

// Distribution selects how global thread IDs map onto WPUs.
type Distribution int

const (
	// DistBlock assigns consecutive thread IDs to the same WPU (and warp):
	// the locality-aware assignment the paper uses (§3.1, citing [18]).
	DistBlock Distribution = iota
	// DistInterleave deals thread IDs round-robin across WPUs — the
	// locality-oblivious alternative, useful to reproduce the claim that
	// neighbouring tasks belong together.
	DistInterleave
)

// MarshalText and UnmarshalText give a Distribution one spelling, "block"
// or "interleave", as a JSON value and as a command-line flag.
func (d Distribution) MarshalText() ([]byte, error) {
	switch d {
	case DistBlock:
		return []byte("block"), nil
	case DistInterleave:
		return []byte("interleave"), nil
	}
	return nil, fmt.Errorf("sim: unknown distribution %d", int(d))
}

// UnmarshalText also reads the empty string as DistBlock, the default.
func (d *Distribution) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "block":
		*d = DistBlock
	case "interleave":
		*d = DistInterleave
	default:
		return fmt.Errorf("dist %q (want block or interleave)", b)
	}
	return nil
}

// Config describes the whole machine.
type Config struct {
	WPUs int
	WPU  wpu.Config
	Hier mem.HierarchyConfig
	// Dist selects the thread-to-WPU mapping (default DistBlock).
	Dist Distribution
	// Trace attaches the observability sink to every component of the
	// machine (events) and enables the interval timeline sampler (every
	// Trace.Interval cycles). nil — the default, and the only value the
	// experiment cache key can denote — runs uninstrumented.
	Trace *obs.Trace
}

// DefaultConfig returns the paper's Table 3 configuration, every value
// named in program's table3.go: 4 WPUs, each 1 GHz in-order with 4 warps ×
// 16 lanes and a 16-entry warp-split table; 32 KB 8-way L1 D-caches with
// 3-cycle hits, 128 B lines and 32 MSHRs; a 4 MB 16-way shared L2 with
// 30-cycle lookup; 100-cycle DRAM.
func DefaultConfig() Config {
	return Config{
		WPUs: program.WPUs,
		WPU: wpu.Config{
			Warps:      program.Warps,
			Width:      program.Width,
			WSTEntries: program.WSTEntries,
		},
		Hier: mem.HierarchyConfig{
			L1: mem.L1Config{
				SizeBytes: program.L1SizeBytes,
				Ways:      program.L1Ways,
				LineSize:  program.LineBytes,
				HitLat:    program.L1HitLat,
				Banks:     program.L1Banks,
				MSHRs:     program.L1MSHRs,
			},
			L2: mem.L2Config{
				SizeBytes: program.L2SizeBytes,
				Ways:      program.L2Ways,
				LineSize:  program.LineBytes,
				LookupLat: program.L2LookupLat,
				ProbeLat:  program.L2ProbeLat,
				MSHRs:     program.L2MSHRs,
			},
			XbarLat:   program.XbarLat,
			XbarOcc:   program.XbarOcc,
			MemBusOcc: program.MemBusOcc,
			DRAMLat:   program.DRAMLat,
		},
	}
}

// wpuConfig is the configuration every WPU of the machine runs: cfg.WPU
// with the lane tid step the distribution implies. Under interleaved
// distribution adjacent lanes of a warp hold thread IDs one WPU-count apart;
// the static per-pc transaction bounds are scaled by this step so the
// concordance check stays sound.
func (cfg Config) wpuConfig() wpu.Config {
	w := cfg.WPU
	if cfg.Dist == DistInterleave {
		w.LaneTidStep = cfg.WPUs
	}
	return w
}

// CostParamsFor translates a machine configuration plus a launch thread
// count into the static cost model's parameter block: the Launch-time
// counterpart of program.DefaultCostParams, which it equals on DefaultConfig
// (TestCostParamsForMapsDefaultConfig).
func CostParamsFor(cfg Config, threads int) program.CostParams {
	return program.CostParams{
		WPUs:    cfg.WPUs,
		Threads: threads,
		Mem:     wpu.MemParams(cfg.wpuConfig(), cfg.Hier.L1),
	}
}

// System is one assembled machine instance. The simulated clock persists
// across kernels so multi-pass workloads accumulate a single timeline.
type System struct {
	Cfg  Config
	Q    *engine.Queue
	Hier *mem.Hierarchy
	WPUs []*wpu.WPU

	cycle engine.Cycle
	// skipped counts the cycles skipIdle moved the clock over (tests read it).
	skipped uint64
	// roster is the WPUs' own account of which of them are awake, running
	// and at the barrier: run reads it instead of asking each WPU. Reset
	// empties it and keeps its storage; run takes the account at every
	// kernel.
	roster wpu.Roster

	// obsPrev holds the per-WPU counter snapshot at the previous timeline
	// sample, so each Sample carries interval deltas.
	obsPrev []wpu.Stats

	// Launch scratch, reused across kernels: the register files StageThreads
	// hands out, and RunKernel's per-WPU chunks (with the copies an
	// interleaved distribution needs).
	staged []isa.RegFile
	chunks [][]isa.RegFile
	dealt  []isa.RegFile

	// observers are the periodic hooks (Observe), the timeline sampler first.
	observers []observer
	// stopped is set by Stop and read only after an observer has run.
	stopped bool
}

// observer is one hook and the period it asked for.
type observer struct {
	every uint64
	fn    func(cycle uint64)
}

// Observe has fn called in every cycle that is a multiple of every (at least
// 1), after all WPUs ticked — the hook behind cmd/dwstrace, the live metrics
// and custom instrumentation. It sees exact Stats. The clock still jumps over
// idle cycles, but never over one an observer is due in, so a period of 1
// visits every cycle. Several observers run in the order they were added;
// Reset drops them all: a hook belongs to one run. A period of 0 is taken
// as 1.
func (s *System) Observe(every uint64, fn func(cycle uint64)) {
	s.observers = append(s.observers, observer{max(every, 1), fn})
}

// Stop makes the run in progress return an error as soon as the observer
// that calls it returns; the observers after it in that cycle do not run.
// It is for observers: call it from one, on the goroutine that drives the
// machine. Reset clears it.
func (s *System) Stop() { s.stopped = true }

// New builds a machine: an empty System put through Reset, so there is one
// construction path and a recycled machine cannot differ from a new one by
// anything Reset does not cover.
func New(cfg Config) (*System, error) {
	s := &System{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the machine to the state New(cfg) builds — time zero, empty
// event queue and functional memory, cold caches, zero
// statistics, no observers but the timeline sampler — so the next simulation
// on it is bit-identical to one on a new machine. Components are kept and
// emptied where cfg leaves their geometry unchanged and reallocated where it
// does not. Nothing of the previous run may be used afterwards: not its trace
// sink's attachment, not pointers into its memory image. On error (cfg
// invalid) the machine is in no defined state and must be dropped.
func (s *System) Reset(cfg Config) error {
	if cfg.WPUs <= 0 {
		return fmt.Errorf("sim: need at least one WPU")
	}
	if cfg.WPUs > mem.MaxL1s {
		return fmt.Errorf("sim: %d WPUs exceed the L2 directory's %d", cfg.WPUs, mem.MaxL1s)
	}
	cfg.Hier.Trace = cfg.Trace
	cfg.WPU = cfg.wpuConfig()
	old := *s
	*s = System{
		Cfg:    cfg,
		Q:      old.Q,
		Hier:   old.Hier,
		WPUs:   old.WPUs,
		roster: old.roster,
		staged: old.staged,
		chunks: old.chunks,
		dealt:  old.dealt,
	}
	s.roster.Start(nil) // empty: no WPU bound, nothing counted
	if t := cfg.Trace; t != nil && t.Interval != 0 {
		s.Observe(t.Interval, s.sampleTimeline)
	}
	if s.Q == nil {
		s.Q = &engine.Queue{}
		s.Hier = mem.NewHierarchy(s.Q, cfg.WPUs, cfg.Hier)
	} else {
		s.Q.Reset()
		s.Hier.Reset(cfg.WPUs, cfg.Hier)
	}
	if len(s.WPUs) != cfg.WPUs {
		var err error
		s.WPUs, err = wpu.NewBank(s.Q, cfg.WPU, s.Hier.L1s, s.Hier.Mem, cfg.Trace)
		return err
	}
	for i, w := range s.WPUs {
		if err := w.Reset(cfg.WPU, s.Hier.L1s[i], s.Hier.Mem, cfg.Trace); err != nil {
			return err
		}
	}
	return nil
}

// Memory exposes the functional memory for workload setup/verification.
func (s *System) Memory() *mem.Memory { return s.Hier.Mem }

// Cycles returns the simulated time so far.
func (s *System) Cycles() uint64 { return uint64(s.cycle) }

// ThreadCapacity returns the machine's hardware thread count.
func (s *System) ThreadCapacity() int {
	return s.Cfg.WPUs * s.WPUs[0].ThreadCapacity()
}

// Threads builds n initial register files with the launch ABI (R1 = global
// thread ID, R2 = thread count, R3 = WPU-local index filled at dispatch)
// and applies setup to each.
func Threads(n int, setup func(tid int, r *isa.RegFile)) []isa.RegFile {
	regs := make([]isa.RegFile, n)
	initThreads(regs, setup)
	return regs
}

func initThreads(regs []isa.RegFile, setup func(tid int, r *isa.RegFile)) {
	for i := range regs {
		regs[i].Set(1, int64(i))
		regs[i].Set(2, int64(len(regs)))
		if setup != nil {
			setup(i, &regs[i])
		}
	}
}

// StageThreads is Threads into a buffer the machine owns: the register files
// are valid until the next StageThreads call, which is all RunKernel needs
// (each WPU copies its chunk into its lane registers at Launch). A launch
// plan of hundreds of kernels thus costs one buffer, not one per kernel.
func (s *System) StageThreads(n int, setup func(tid int, r *isa.RegFile)) []isa.RegFile {
	if cap(s.staged) < n {
		s.staged = make([]isa.RegFile, n)
	}
	regs := s.staged[:n]
	clear(regs)
	initThreads(regs, setup)
	return regs
}

// RunKernel distributes threads block-wise over the WPUs (neighbouring
// thread IDs share a warp, the locality-aware assignment of §3.1) and runs
// the machine until every thread halts. It returns the cycles this kernel
// took.
func (s *System) RunKernel(p *program.Program, threads []isa.RegFile) (uint64, error) {
	if len(threads) == 0 {
		return 0, fmt.Errorf("sim: no threads")
	}
	if len(threads) > s.ThreadCapacity() {
		return 0, fmt.Errorf("sim: %d threads exceed machine capacity %d", len(threads), s.ThreadCapacity())
	}
	if len(s.chunks) != s.Cfg.WPUs {
		s.chunks = make([][]isa.RegFile, s.Cfg.WPUs)
	}
	chunks := s.chunks
	clear(chunks)
	switch s.Cfg.Dist {
	case DistInterleave:
		// Deal thread i to WPU i mod n: WPU w's chunk is the w-th run of a
		// scratch copy laid out WPU-major.
		if cap(s.dealt) < len(threads) {
			s.dealt = make([]isa.RegFile, len(threads))
		}
		dealt := s.dealt[:0]
		for w := range chunks {
			lo := len(dealt)
			for i := w; i < len(threads); i += s.Cfg.WPUs {
				dealt = append(dealt, threads[i])
			}
			chunks[w] = dealt[lo:len(dealt):len(dealt)]
		}
	default: // DistBlock
		per := (len(threads) + s.Cfg.WPUs - 1) / s.Cfg.WPUs
		for i := range chunks {
			lo := i * per
			if lo >= len(threads) {
				break
			}
			chunks[i] = threads[lo:min(lo+per, len(threads))]
		}
	}
	for i, w := range s.WPUs {
		chunk := chunks[i]
		for j := range chunk {
			chunk[j].Set(3, int64(j))
		}
		if err := w.Launch(p, chunk); err != nil {
			return 0, err
		}
	}
	start := s.cycle
	if err := s.run(); err != nil {
		return 0, err
	}
	return uint64(s.cycle - start), nil
}

// run drives the machine until every thread has halted. One iteration is
// one simulated cycle: deliver the events due, tick every awake WPU in
// ascending index, release the kernel barrier if it filled, serve the
// observers. A WPU that can do nothing until an event reaches it sleeps and
// leaves the roster's awake set (wpu.Roster), so the loop does not visit it,
// and when the set is empty the clock moves straight to the next cycle in
// which anything can happen. DESIGN.md "What changes in a cycle in which
// nothing issues" lists what that rests on.
func (s *System) run() error {
	r := &s.roster
	r.Start(s.WPUs)
	awake := r.Awake()
	for {
		if !anySet(awake) {
			s.skipIdle()
		}
		s.Q.RunUntil(s.cycle)
		// A WPU joins the set only when an event or a release wakes it, so
		// re-reading its word after each Tick sees any WPU the tick woke.
		progress := false
		for i := range awake {
			for m := awake[i]; m != 0; {
				b := bits.TrailingZeros64(m)
				if s.WPUs[i<<6|b].Tick() {
					progress = true
				}
				m = awake[i] &^ (2<<b - 1)
			}
		}
		released := false
		if r.AtBarrier() > 0 && s.allBarrierReady() {
			for _, w := range s.WPUs {
				w.ReleaseBarrier()
			}
			released = true
		}
		for _, o := range s.observers {
			if uint64(s.cycle)%o.every == 0 {
				s.syncStats() // a no-op once synced
				o.fn(uint64(s.cycle))
				if s.stopped {
					return fmt.Errorf("sim: stopped at cycle %d", s.cycle)
				}
			}
		}
		if s.Q.Len() == 0 && !progress && !released {
			// Nothing pending, nothing issued, nothing released: the machine
			// can never make progress again.
			s.syncStats()
			var dump string
			for _, w := range s.WPUs {
				dump += w.DebugDump()
			}
			return fmt.Errorf("sim: deadlock at cycle %d\n%s", s.cycle, dump)
		}
		s.cycle++
		if r.Running() == 0 {
			return nil
		}
	}
}

// anySet reports whether any bit of the set is set.
func anySet(set []uint64) bool {
	for _, m := range set {
		if m != 0 {
			return true
		}
	}
	return false
}

// skipIdle moves the clock, when every running WPU sleeps, to the next cycle
// that is not a copy of this one: the earliest pending event or, if it comes
// first, the next cycle an observer is due in. The WPUs credit the skipped
// cycles when they wake. With nothing pending the clock stays, and the cycle
// about to run reports the deadlock.
func (s *System) skipIdle() {
	to, ok := s.Q.NextEventTime()
	if !ok {
		return
	}
	for _, o := range s.observers {
		iv := engine.Cycle(o.every)
		to = min(to, (s.cycle+iv-1)/iv*iv)
	}
	if to > s.cycle {
		s.skipped += uint64(to - s.cycle)
		s.cycle = to
	}
}

// syncStats makes every WPU's Stats exact through the current cycle, for a
// reader in mid-run: a sleeping WPU credits its skipped cycles only when it
// wakes.
func (s *System) syncStats() {
	for _, w := range s.WPUs {
		w.Sync(s.cycle + 1)
	}
}

func (s *System) allBarrierReady() bool {
	for _, w := range s.WPUs {
		if !w.BarrierReady() {
			return false
		}
	}
	return true
}

// sampleTimeline, the observer Reset adds for a trace with an interval,
// appends one timeline row per WPU to the observability sink: interval deltas
// of the cycle/issue accounting plus instantaneous WST, scheduler and MSHR
// occupancies.
func (s *System) sampleTimeline(cycle uint64) {
	t := s.Cfg.Trace
	if s.obsPrev == nil {
		s.obsPrev = make([]wpu.Stats, len(s.WPUs))
	}
	l2 := s.Hier.L2.OutstandingMisses()
	for i, w := range s.WPUs {
		st := w.Stats
		prev := &s.obsPrev[i]
		t.AddSample(obs.Sample{
			Cycle:       cycle,
			WPU:         i,
			Busy:        st.BusyCycles - prev.BusyCycles,
			StallMem:    st.MemStallCycles() - prev.MemStallCycles(),
			StallOther:  st.StallOtherCycles() - prev.StallOtherCycles(),
			Issued:      st.Issued - prev.Issued,
			WidthAccum:  st.ThreadOps - prev.ThreadOps,
			WSTOcc:      w.LiveSplits(),
			Resident:    w.ResidentSplits(),
			SlotWaiters: w.SlotWaiters(),
			L1MSHR:      s.Hier.L1s[i].OutstandingMisses(),
			L2MSHR:      l2,
		})
		s.obsPrev[i] = st
	}
}

// TotalStats sums the per-WPU statistics.
func (s *System) TotalStats() wpu.Stats {
	var t wpu.Stats
	rows := 0
	for _, w := range s.WPUs {
		rows += len(w.Stats.ThreadMisses)
	}
	t.ThreadMisses = make([][]uint64, 0, rows)
	for _, w := range s.WPUs {
		t.Add(&w.Stats)
	}
	return t
}

// L1Stats sums the private-cache statistics.
func (s *System) L1Stats() mem.L1Stats {
	var t mem.L1Stats
	for _, c := range s.Hier.L1s {
		t.Add(c.Stats)
	}
	return t
}

// L2Stats returns the shared-cache statistics.
func (s *System) L2Stats() mem.L2Stats { return s.Hier.L2.Stats }
