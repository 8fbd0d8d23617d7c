package mem

import (
	"math/bits"

	"repro/internal/engine"
	"repro/internal/obs"
)

// L1Config sizes a private data cache (Table 3 defaults are in sim).
type L1Config struct {
	SizeBytes int
	Ways      int // 0 = fully associative
	LineSize  uint64
	HitLat    engine.Cycle
	Banks     int
	MSHRs     int
}

// L1Stats counts events observed by one L1 cache.
type L1Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64 // primary misses (MSHR allocations)
	Merges        uint64 // secondary misses coalesced into an existing MSHR
	Upgrades      uint64 // stores that hit Shared and needed exclusivity
	Writebacks    uint64 // dirty evictions to L2
	Evictions     uint64
	Invalidates   uint64 // lines invalidated by directory probes
	Downgrades    uint64 // M/E lines downgraded to S by directory probes
	BankQueuing   uint64 // cycles spent waiting on busy banks
	BankConflicts uint64 // accesses that queued behind a busy bank
	MSHRStalls    uint64 // requests that waited because all MSHRs were busy
	MSHRPeak      uint64 // high-water mark of simultaneously busy MSHRs
	ReadAccesses  uint64
}

// l1Done is one completion subscription: a pre-bound handler plus its
// argument (the allocation-free path), scheduled when the access finishes.
type l1Done struct {
	h     engine.Handler
	arg   uint64
	write bool
}

type l1MSHR struct {
	lineAddr uint64
	write    bool // requested exclusive permission
	// upgradeWanted is set when a store merges into a read request that has
	// already been dispatched; a second, exclusive request is issued when
	// the first fill returns without write permission.
	upgradeWanted bool
	// granted carries the directory's grant from install time (the
	// synchronous directory reply) to the fill completion that arrives after
	// the probe penalty and the return crossbar hop.
	granted Coherence
	// born/sentAt stamp the residency and per-trip service histograms:
	// allocation time and the most recent dispatch across the crossbar (an
	// upgrade re-dispatch restarts the trip). viaDRAM is set by the L2 when
	// this miss's fill had to go to DRAM, steering the service histogram;
	// it is only maintained when a trace is attached.
	born    engine.Cycle
	sentAt  engine.Cycle
	viaDRAM bool
	dones   []l1Done
}

type l1Waiter struct {
	lineAddr uint64
	write    bool
	h        engine.Handler
	arg      uint64
}

// The L1's event-path hops are pre-bound handlers so steady-state misses
// schedule nothing but pooled engine events; each carries the line address
// as its argument and resolves the MSHR from the map at delivery time.
type l1ReqHop struct{ c *L1 }      // request crossed the crossbar → directory request
type l1PenaltyHop struct{ c *L1 }  // probe penalty elapsed → return crossbar hop
type l1CompleteHop struct{ c *L1 } // fill crossed the crossbar back → complete

func (hp *l1ReqHop) HandleEvent(lineAddr uint64) { hp.c.sendRequest(lineAddr) }

func (hp *l1PenaltyHop) HandleEvent(lineAddr uint64) {
	hp.c.xbar.SendEvent(&hp.c.completeHop, lineAddr)
}

func (hp *l1CompleteHop) HandleEvent(lineAddr uint64) {
	c := hp.c
	m, _ := c.mshrs.get(lineAddr)
	c.complete(m, m.granted)
}

// L1 is a private, banked, write-back, write-allocate data cache with MSHRs
// that coalesce requests to the same line (the paper's memory coalescing at
// the L1, §3.3).
type L1 struct {
	ID int

	q     *engine.Queue
	store *store
	cfg   L1Config
	xbar  *Channel
	l2    *L2

	mshrs    mshrTable[*l1MSHR]
	mshrPool []*l1MSHR      // free list; retired MSHRs keep their dones capacity
	waiting  fifo[l1Waiter] // overflow when all MSHRs are busy
	bankFree []engine.Cycle
	// bankShift/bankMask replace hitReady's divide+modulo bank selection;
	// bankMask < 0 keeps the modulo path for non-power-of-two bank counts.
	bankShift uint
	bankMask  int64
	// lineMask caches LineSize-1 so the WPU's per-lane Line calls align
	// without chasing into the store.
	lineMask uint64

	reqHop      l1ReqHop
	penaltyHop  l1PenaltyHop
	completeHop l1CompleteHop

	trace *obs.Trace // per-System observability sink (nil = disabled)

	Stats L1Stats
}

// NewL1 builds an L1 connected to the shared L2 through the crossbar.
// trace is the per-System observability sink; nil disables event emission.
func NewL1(id int, q *engine.Queue, cfg L1Config, xbar *Channel, l2 *L2, trace *obs.Trace) *L1 {
	c := &L1{ID: id, q: q, store: &store{}, xbar: xbar, l2: l2}
	c.reqHop = l1ReqHop{c}
	c.penaltyHop = l1PenaltyHop{c}
	c.completeHop = l1CompleteHop{c}
	c.reset(cfg, trace)
	l2.attach(c)
	return c
}

// reset returns the cache to its freshly built state under cfg: empty
// array, no miss in flight, idle banks, zero statistics. Arrays are
// reallocated only when cfg resizes them; the MSHR free list survives (it
// is capacity, not state). An L2 reset detaches every L1, so the caller
// re-attaches the cache afterwards.
func (c *L1) reset(cfg L1Config, trace *obs.Trace) {
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	c.store.reset(cfg.SizeBytes, cfg.Ways, cfg.LineSize)
	c.mshrs.reset(cfg.MSHRs)
	c.waiting.reset()
	if len(c.bankFree) != cfg.Banks {
		c.bankFree = make([]engine.Cycle, cfg.Banks)
	} else {
		clear(c.bankFree)
	}
	c.cfg = cfg
	c.lineMask = cfg.LineSize - 1
	c.bankShift = uint(bits.TrailingZeros64(cfg.LineSize))
	c.bankMask = -1
	if cfg.Banks&(cfg.Banks-1) == 0 {
		c.bankMask = int64(cfg.Banks - 1)
	}
	c.trace = trace
	c.Stats = L1Stats{}
}

// Line returns the line-aligned address containing addr; the WPU uses it to
// coalesce the per-thread addresses of a SIMD memory instruction.
func (c *L1) Line(addr uint64) uint64 { return addr &^ c.lineMask }

// Config returns the geometry this L1 was built with (defaults resolved).
// The WPU reads it at Launch to derive static transaction bounds that
// match the machine it actually runs on.
func (c *L1) Config() L1Config { return c.cfg }

// Access issues a load (write=false) or store (write=true) covering one
// cache line, completing through a plain closure. It is the
// convenience/test entry; the WPU's hot path is AccessReady.
func (c *L1) Access(addr uint64, write bool, done func()) (hit bool) {
	var h engine.Handler
	if done != nil {
		h = engine.FuncHandler(done)
	}
	return c.AccessEvent(addr, write, h, 0)
}

// AccessEvent issues a load (write=false) or store (write=true) covering
// one cache line. It reports synchronously whether the access hits — the
// WPU needs the hit mask at issue time to drive memory-divergence
// subdivision — and schedules h.HandleEvent(arg) when the access completes
// (after the hit latency for hits, or when the fill returns for misses).
// h may be nil when no one waits for the data.
func (c *L1) AccessEvent(addr uint64, write bool, h engine.Handler, arg uint64) (hit bool) {
	ready, hit := c.AccessReady(addr, write, h, arg)
	if hit {
		c.scheduleHit(ready, h, arg)
	}
	return hit
}

// AccessReady is AccessEvent except that a hit schedules nothing: it
// returns the cycle the hit's data is ready (the hit latency after bank
// queuing) and the caller delivers the completion — the WPU folds the hits
// of one SIMD access that are ready in the same cycle into one event. A
// miss subscribes h to the fill exactly as AccessEvent does.
func (c *L1) AccessReady(addr uint64, write bool, h engine.Handler, arg uint64) (ready engine.Cycle, hit bool) {
	c.Stats.Accesses++
	if !write {
		c.Stats.ReadAccesses++
	}
	lineAddr := c.store.Line(addr)

	// A line with an in-flight fill still counts as a miss: the grant may
	// have installed coherence state already, but the data has not crossed
	// the crossbar yet.
	if m, ok := c.mshrs.get(lineAddr); ok {
		c.Stats.Merges++
		if h != nil {
			m.dones = append(m.dones, l1Done{h: h, arg: arg, write: write})
		}
		if write && !m.write {
			m.upgradeWanted = true
		}
		return 0, false
	}

	if i := c.store.lookup(lineAddr); i >= 0 {
		if !write || c.writable(i) {
			c.Stats.Hits++
			if write {
				c.store.write(i)
			}
			c.store.touch(i)
			return c.hitReady(lineAddr), true
		}
		// Store hitting a Shared line: the data is here but exclusivity is
		// not — an upgrade miss.
		c.Stats.Upgrades++
	}
	c.missPath(lineAddr, write, h, arg)
	return 0, false
}

// hitReady claims the line's bank for one cycle, queuing behind earlier
// accesses to it, and returns the cycle the hit's data is ready.
func (c *L1) hitReady(lineAddr uint64) engine.Cycle {
	bank := int((lineAddr >> c.bankShift) & uint64(c.bankMask))
	if c.bankMask < 0 {
		bank = int((lineAddr >> c.bankShift) % uint64(c.cfg.Banks))
	}
	start := c.q.Now()
	if c.bankFree[bank] > start {
		c.Stats.BankQueuing += uint64(c.bankFree[bank] - start)
		c.Stats.BankConflicts++
		start = c.bankFree[bank]
	}
	c.bankFree[bank] = start + 1 // banks accept one access per cycle
	if c.trace != nil {
		c.trace.Hists.L1Hit.Record(uint64(start + c.cfg.HitLat - c.q.Now()))
	}
	return start + c.cfg.HitLat
}

// scheduleHit delivers a hit's completion at ready, the cycle hitReady
// returned; it is the one place the L1 schedules a hit.
func (c *L1) scheduleHit(ready engine.Cycle, h engine.Handler, arg uint64) {
	if h != nil {
		c.q.ScheduleAt(ready, h, arg)
	}
}

func (c *L1) missPath(lineAddr uint64, write bool, h engine.Handler, arg uint64) {
	if c.mshrs.len() >= c.cfg.MSHRs {
		c.Stats.MSHRStalls++
		if c.trace != nil {
			c.trace.Emit(obs.Event{Cycle: uint64(c.q.Now()), Kind: obs.EvL1MSHRFull,
				Unit: c.ID, Warp: -1, PC: -1, Addr: lineAddr})
		}
		c.waiting.push(l1Waiter{lineAddr: lineAddr, write: write, h: h, arg: arg})
		return
	}
	c.allocMSHR(lineAddr, write, h, arg)
}

// getMSHR takes a recycled MSHR from the pool (or makes one); steady-state
// misses therefore allocate nothing.
func (c *L1) getMSHR() *l1MSHR {
	if n := len(c.mshrPool); n > 0 {
		m := c.mshrPool[n-1]
		c.mshrPool = c.mshrPool[:n-1]
		return m
	}
	return &l1MSHR{}
}

func (c *L1) putMSHR(m *l1MSHR) {
	for i := range m.dones {
		m.dones[i].h = nil
	}
	*m = l1MSHR{dones: m.dones[:0]}
	c.mshrPool = append(c.mshrPool, m)
}

func (c *L1) allocMSHR(lineAddr uint64, write bool, h engine.Handler, arg uint64) {
	c.Stats.Misses++
	if c.trace != nil {
		c.trace.Emit(obs.Event{Cycle: uint64(c.q.Now()), Kind: obs.EvL1Miss,
			Unit: c.ID, Warp: -1, PC: -1, Addr: lineAddr})
	}
	m := c.getMSHR()
	m.lineAddr = lineAddr
	m.write = write
	m.born = c.q.Now()
	if h != nil {
		m.dones = append(m.dones, l1Done{h: h, arg: arg, write: write})
	}
	c.mshrs.put(lineAddr, m)
	if n := uint64(c.mshrs.len()); n > c.Stats.MSHRPeak {
		c.Stats.MSHRPeak = n
	}
	c.dispatch(m)
}

// dispatch sends the miss across the crossbar; the request hop re-reads the
// MSHR's write intent at arrival so an upgrade re-dispatch reuses the path.
func (c *L1) dispatch(m *l1MSHR) {
	m.sentAt = c.q.Now()
	c.xbar.SendEvent(&c.reqHop, m.lineAddr)
}

// sendRequest runs when the request arrives at the directory (one crossbar
// hop after dispatch). The reply comes back synchronously at grant time via
// grantReply.
func (c *L1) sendRequest(lineAddr uint64) {
	m, _ := c.mshrs.get(lineAddr)
	c.l2.Request(c.ID, lineAddr, m.write)
}

// grantReply is invoked by the directory when it grants this cache's
// request. Coherence state installs atomically with the directory decision
// so L1 state and directory state never disagree; the data (and so the
// waiters' completion) still pays the probe penalty plus the return
// crossbar hop.
func (c *L1) grantReply(lineAddr uint64, granted Coherence, penalty engine.Cycle) {
	m, _ := c.mshrs.get(lineAddr)
	c.install(m, granted)
	m.granted = granted
	c.q.ScheduleAfter(penalty, &c.penaltyHop, lineAddr)
}

// install places the granted line in the array at directory-grant time.
func (c *L1) install(m *l1MSHR, granted Coherence) {
	i := c.store.lookup(m.lineAddr)
	if i < 0 {
		i = c.store.victim(m.lineAddr)
		c.evict(i)
		c.store.fill(i, m.lineAddr)
	}
	c.store.setState(i, granted)
	if m.write {
		c.store.write(i)
	}
	c.store.touch(i)
}

// writable reports whether frame i grants write permission (M or E).
func (c *L1) writable(i int) bool {
	st := c.store.state(i)
	return st == Modified || st == Exclusive
}

// complete fires the MSHR's callbacks once the fill data has crossed the
// crossbar, issuing a follow-up exclusive request when a store merged into
// a read whose copy is not exclusive-capable. The decision reads the line's
// state now, not the state granted at directory time: a remote read may
// have downgraded the copy to Shared during the fill's probe-penalty and
// crossbar window, and promoting that copy to Modified in place would break
// the single-writer invariant.
func (c *L1) complete(m *l1MSHR, granted Coherence) {
	if c.trace != nil {
		// One record per crossbar round trip: an upgrade re-dispatch below
		// restarts sentAt and records its own trip when it completes.
		h := &c.trace.Hists.L2Serve
		if m.viaDRAM {
			h = &c.trace.Hists.DRAMServe
		}
		h.Record(uint64(c.q.Now() - m.sentAt))
		m.viaDRAM = false
	}
	if m.upgradeWanted {
		i := c.store.lookup(m.lineAddr)
		if i < 0 || !c.writable(i) {
			n := 0
			for _, d := range m.dones {
				if d.write {
					m.dones[n] = d
					n++
				} else {
					c.q.ScheduleAfter(0, d.h, d.arg)
				}
			}
			for i := n; i < len(m.dones); i++ {
				m.dones[i].h = nil
			}
			m.dones = m.dones[:n]
			m.write = true
			m.upgradeWanted = false
			c.Stats.Upgrades++
			c.dispatch(m)
			return
		}
		// The copy is still exclusive-capable; promote in place.
		c.store.write(i)
	}
	for _, d := range m.dones {
		c.q.ScheduleAfter(0, d.h, d.arg)
	}
	if c.trace != nil {
		c.trace.Hists.L1MSHRRes.Record(uint64(c.q.Now() - m.born))
	}
	c.mshrs.del(m.lineAddr)
	c.putMSHR(m)
	c.drainWaiting()
}

func (c *L1) drainWaiting() {
	for c.waiting.len() > 0 && c.mshrs.len() < c.cfg.MSHRs {
		wt := c.waiting.pop()
		if m, ok := c.mshrs.get(wt.lineAddr); ok {
			if wt.h != nil {
				m.dones = append(m.dones, l1Done{h: wt.h, arg: wt.arg, write: wt.write})
			}
			if wt.write && !m.write {
				m.upgradeWanted = true
			}
			continue
		}
		// Re-check the cache: an earlier fill may already cover this line.
		if i := c.store.lookup(wt.lineAddr); i >= 0 && (!wt.write || c.writable(i)) {
			if wt.write {
				c.store.write(i)
			}
			c.scheduleHit(c.hitReady(wt.lineAddr), wt.h, wt.arg)
			continue
		}
		c.allocMSHR(wt.lineAddr, wt.write, wt.h, wt.arg)
	}
}

// evict releases a frame, writing back dirty data and informing the
// directory so its sharer state stays precise.
func (c *L1) evict(i int) {
	if !c.store.valid(i) {
		return
	}
	c.Stats.Evictions++
	dirty := c.store.dirty(i)
	if dirty {
		c.Stats.Writebacks++
		c.xbar.Occupy() // dirty data occupies the crossbar
	}
	c.l2.put(c.ID, c.store.lineOf(i), dirty)
	c.store.invalidate(i)
}

// invalidateLine services a directory probe that revokes this cache's copy.
// It reports whether the line held dirty data.
func (c *L1) invalidateLine(lineAddr uint64) (wasDirty bool) {
	i := c.store.lookup(lineAddr)
	if i < 0 {
		return false
	}
	c.Stats.Invalidates++
	wasDirty = c.store.dirty(i)
	c.store.invalidate(i)
	return wasDirty
}

// downgradeLine services a directory probe demoting M/E to S, returning
// whether dirty data was flushed to the L2.
func (c *L1) downgradeLine(lineAddr uint64) (wasDirty bool) {
	i := c.store.lookup(lineAddr)
	if i < 0 {
		return false
	}
	if c.writable(i) {
		c.Stats.Downgrades++
		wasDirty = c.store.dirty(i)
		c.store.setClean(i, Shared)
	}
	return wasDirty
}

// holdsOrFetches reports whether the cache holds lineAddr or has a miss in
// flight for it.
func (c *L1) holdsOrFetches(lineAddr uint64) bool {
	_, fetching := c.mshrs.get(lineAddr)
	return fetching || c.store.lookup(lineAddr) >= 0
}

// OutstandingMisses reports the number of busy MSHRs (used by tests and the
// MLP statistics).
func (c *L1) OutstandingMisses() int { return c.mshrs.len() }

// MissRate returns misses (primary + coalesced) over accesses.
func (s L1Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.Merges) / float64(s.Accesses)
}
