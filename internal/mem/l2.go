package mem

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/obs"
)

// L2Config sizes the shared last-level cache.
type L2Config struct {
	SizeBytes int
	Ways      int // 0 = fully associative
	LineSize  uint64
	// LookupLat is the tag+data lookup latency (the paper sweeps this from
	// 10 to 300 cycles in Figure 16).
	LookupLat engine.Cycle
	// ProbeLat is the extra round-trip charged when the directory must
	// invalidate or downgrade a remote L1 copy before answering.
	ProbeLat engine.Cycle
	MSHRs    int
}

// L2Stats counts events observed by the shared L2 and its directory.
type L2Stats struct {
	Requests    uint64
	Hits        uint64
	Misses      uint64
	Merges      uint64 // requests coalesced into an in-flight fetch
	ProbeInvals uint64 // directory-initiated L1 invalidations
	ProbeDowngr uint64 // directory-initiated L1 downgrades
	Evictions   uint64
	Writebacks  uint64 // dirty evictions to memory
	InclInvals  uint64 // inclusive-eviction invalidations of L1 copies
	MSHRPeak    uint64 // high-water mark of simultaneously busy MSHRs
	// MSHRFull counts requests that missed while every MSHR was busy and
	// waited until one freed (the L2 is un-banked, so this is its only
	// structural-conflict source; bank conflicts are an L1Stats counter).
	// A waiting request's rerun lookup counts it once more, as a hit, a
	// merge or a miss.
	MSHRFull uint64
}

// l2Req is one L1 request queued at the directory. The grant is delivered
// synchronously into the requesting L1 via grantReply — L1 coherence state
// must install atomically with the directory decision or later grants could
// race it — together with the probe penalty the requester must add to its
// completion time.
type l2Req struct {
	from     int
	lineAddr uint64
	write    bool
}

type l2MSHR struct {
	lineAddr uint64
	born     engine.Cycle // allocation time, for the residency histogram
	reqs     []l2Req
}

// MaxL1s is the most L1s the L2's directory can name: its owner field
// holds an L1 id + 1 in 16 bits.
const MaxL1s = math.MaxUint16

// L2 is the inclusive shared last-level cache with a full-map directory
// implementing MESI over the private L1s.
type L2 struct {
	q    *engine.Queue
	st   *store
	cfg  L2Config
	dram *DRAM
	l1s  []*L1

	// The directory holds one record per frame of st, in two dense arrays
	// sized at reset from the number of L1s: sharers has sharerBytes bytes
	// per frame, with bit id%8 of byte id/8 set for each L1 id holding the
	// line Shared, and owner is the id + 1 of the L1 holding it E/M, or 0.
	// A zero record is an unshared line, so both clear with one memclr.
	sharers     []uint8
	owner       []uint16
	sharerBytes int
	maxL1       int // L1s the directory is sized for

	mshrs    mshrTable[*l2MSHR]
	mshrPool []*l2MSHR // free list; retired MSHRs keep their reqs capacity

	// waiting is the FIFO of requests that missed while every MSHR was
	// busy. As MSHRs free, drainWaiting reruns each one's lookup in
	// arrival order, as the L1 does with its own waiting list.
	waiting fifo[l2Req]

	// lookups is the tag-pipeline FIFO: LookupLat is constant, so requests
	// finish the lookup in issue order and the pre-bound lookupHop handler
	// just pops the front — no per-request closure.
	lookups   fifo[l2Req]
	lookupHop l2LookupHop
	fillHop   l2FillHop

	trace *obs.Trace // per-System observability sink (nil = disabled)

	Stats L2Stats
}

type l2LookupHop struct{ l *L2 }
type l2FillHop struct{ l *L2 }

func (hp *l2LookupHop) HandleEvent(uint64) {
	hp.l.lookup(hp.l.lookups.pop())
}

func (hp *l2FillHop) HandleEvent(lineAddr uint64) {
	m, _ := hp.l.mshrs.get(lineAddr)
	hp.l.fill(m)
}

// NewL2 builds the shared cache in front of dram, its directory sized for
// numL1 private caches. trace is the per-System observability sink; nil
// disables event emission.
func NewL2(q *engine.Queue, cfg L2Config, numL1 int, dram *DRAM, trace *obs.Trace) *L2 {
	l := &L2{q: q, st: &store{}, dram: dram}
	l.lookupHop = l2LookupHop{l}
	l.fillHop = l2FillHop{l}
	l.reset(cfg, numL1, trace)
	return l
}

// reset returns the cache and its directory to their freshly built state
// under cfg, sized for numL1 caches with none yet attached; see L1.reset
// for what survives.
func (l *L2) reset(cfg L2Config, numL1 int, trace *obs.Trace) {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	if numL1 > MaxL1s {
		panic(fmt.Sprintf("mem: %d L1s exceed the directory's %d", numL1, MaxL1s))
	}
	used := l.st.useClock != 0
	l.st.reset(cfg.SizeBytes, cfg.Ways, cfg.LineSize)
	frames, sb := l.st.frames(), (numL1+7)/8
	if len(l.owner) != frames || sb != l.sharerBytes {
		l.sharers = make([]uint8, frames*sb)
		l.owner = make([]uint16, frames)
	} else if used {
		clear(l.sharers)
		clear(l.owner)
	}
	l.sharerBytes = sb
	l.maxL1 = numL1
	l.mshrs.reset(cfg.MSHRs)
	clear(l.l1s)
	l.l1s = l.l1s[:0]
	l.waiting.reset()
	l.lookups.reset()
	l.cfg = cfg
	l.trace = trace
	l.Stats = L2Stats{}
}

func (l *L2) attach(c *L1) {
	if c.ID != len(l.l1s) || c.ID >= l.maxL1 {
		panic(fmt.Sprintf("mem: L1 %d attached out of order or past the directory's %d", c.ID, l.maxL1))
	}
	l.l1s = append(l.l1s, c)
}

// Request is called (already delayed by the crossbar) when an L1 misses.
// The requester's grantReply is invoked with the granted MESI state once the
// directory can satisfy the request; the requester adds the return crossbar
// hop.
func (l *L2) Request(from int, lineAddr uint64, write bool) {
	l.Stats.Requests++
	l.lookups.push(l2Req{from: from, lineAddr: lineAddr, write: write})
	l.q.ScheduleAfter(l.cfg.LookupLat, &l.lookupHop, 0)
}

// lookup ends a request's tag lookup: a hit is granted at once, a miss
// takes the miss path.
func (l *L2) lookup(r l2Req) {
	if i := l.st.lookup(r.lineAddr); i >= 0 {
		l.Stats.Hits++
		l.grant(i, r)
		return
	}
	l.missPath(r)
}

// ownerOf returns the L1 id holding frame i's line E/M, or -1.
func (l *L2) ownerOf(i int) int { return int(l.owner[i]) - 1 }

// isSharer reports whether L1 id is in frame i's sharer set.
func (l *L2) isSharer(i, id int) bool {
	return l.sharers[i*l.sharerBytes+id>>3]&(1<<(id&7)) != 0
}

func (l *L2) addSharer(i, id int) { l.sharers[i*l.sharerBytes+id>>3] |= 1 << (id & 7) }

func (l *L2) dropSharer(i, id int) { l.sharers[i*l.sharerBytes+id>>3] &^= 1 << (id & 7) }

// shared reports whether frame i's sharer set is non-empty.
func (l *L2) shared(i int) bool {
	for _, b := range l.sharers[i*l.sharerBytes : (i+1)*l.sharerBytes] {
		if b != 0 {
			return true
		}
	}
	return false
}

// revoke invalidates frame i's line at every sharer but except (-1 for
// none), in ascending L1 id, empties the sharer set and returns how many
// copies it invalidated.
func (l *L2) revoke(i, except int) (n uint64) {
	lineAddr := l.st.lineOf(i)
	row := l.sharers[i*l.sharerBytes : (i+1)*l.sharerBytes]
	for b, set := range row {
		row[b] = 0
		for ; set != 0; set &= set - 1 {
			if id := b*8 + bits.TrailingZeros8(set); id != except {
				l.l1s[id].invalidateLine(lineAddr)
				n++
			}
		}
	}
	return n
}

// grant runs the directory protocol for one request against the line in
// frame i and schedules the reply (plus probe latency when remote copies
// had to be revoked).
func (l *L2) grant(i int, r l2Req) {
	var penalty engine.Cycle
	owner := l.ownerOf(i)

	if r.write {
		if owner >= 0 && owner != r.from {
			if l.l1s[owner].invalidateLine(l.st.lineOf(i)) {
				l.st.markDirty(i)
			}
			l.Stats.ProbeInvals++
			penalty = l.cfg.ProbeLat
		}
		if n := l.revoke(i, r.from); n != 0 {
			l.Stats.ProbeInvals += n
			penalty = l.cfg.ProbeLat
		}
		l.owner[i] = uint16(r.from + 1)
		l.finish(i, r, Modified, penalty)
		return
	}

	// Read request.
	switch {
	case owner >= 0 && owner != r.from:
		if l.l1s[owner].downgradeLine(l.st.lineOf(i)) {
			l.st.markDirty(i)
		}
		l.Stats.ProbeDowngr++
		penalty = l.cfg.ProbeLat
		l.addSharer(i, owner)
		l.addSharer(i, r.from)
		l.owner[i] = 0
		l.finish(i, r, Shared, penalty)
	case owner == r.from:
		// Requester already owns it (e.g. it evicted silently in a race);
		// re-grant exclusivity.
		l.finish(i, r, Exclusive, 0)
	case !l.shared(i):
		l.owner[i] = uint16(r.from + 1)
		l.finish(i, r, Exclusive, 0)
	default:
		l.addSharer(i, r.from)
		l.finish(i, r, Shared, penalty)
	}
}

func (l *L2) finish(i int, r l2Req, granted Coherence, penalty engine.Cycle) {
	l.st.touch(i)
	l.l1s[r.from].grantReply(r.lineAddr, granted, penalty)
}

func (l *L2) getMSHR() *l2MSHR {
	if n := len(l.mshrPool); n > 0 {
		m := l.mshrPool[n-1]
		l.mshrPool = l.mshrPool[:n-1]
		return m
	}
	return &l2MSHR{}
}

func (l *L2) putMSHR(m *l2MSHR) {
	*m = l2MSHR{reqs: m.reqs[:0]}
	l.mshrPool = append(l.mshrPool, m)
}

// missPath merges r into the line's in-flight fetch, starts a fetch, or —
// when every MSHR is busy — parks r until one frees. At Table 3 scale the
// bound is reached from 9 WPUs on (each L1 may have 32 misses in flight,
// the L2 256 in all).
func (l *L2) missPath(r l2Req) {
	m, ok := l.mshrs.get(r.lineAddr)
	if !ok && l.mshrs.len() >= l.cfg.MSHRs {
		l.Stats.MSHRFull++
		l.waiting.push(r)
		return
	}
	if l.trace != nil {
		// The requesting L1's fill will come through DRAM (whether this
		// request fetches or merges); mark its MSHR so the L1 attributes
		// the round trip to the right service-level histogram.
		if m1, ok := l.l1s[r.from].mshrs.get(r.lineAddr); ok {
			m1.viaDRAM = true
		}
	}
	if ok {
		l.Stats.Merges++
		m.reqs = append(m.reqs, r)
		return
	}
	l.Stats.Misses++
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvL2Miss,
			Unit: r.from, Warp: -1, PC: -1, Addr: r.lineAddr})
	}
	m = l.getMSHR()
	m.lineAddr = r.lineAddr
	m.born = l.q.Now()
	m.reqs = append(m.reqs, r)
	l.mshrs.put(r.lineAddr, m)
	if n := uint64(l.mshrs.len()); n > l.Stats.MSHRPeak {
		l.Stats.MSHRPeak = n
	}
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMFetch,
			Unit: -1, Warp: -1, PC: -1, Addr: r.lineAddr})
	}
	l.dram.FetchEvent(&l.fillHop, r.lineAddr)
}

// fill installs a memory line, answers the queued requesters in order and
// hands the freed MSHR to the waiting requests. The line is absent: a line
// enters the L2 only here, and it has one MSHR at a time.
func (l *L2) fill(m *l2MSHR) {
	i := l.st.victim(m.lineAddr)
	l.evict(i)
	l.st.fill(i, m.lineAddr)
	l.mshrs.del(m.lineAddr)
	if l.trace != nil {
		l.trace.Hists.L2MSHRRes.Record(uint64(l.q.Now() - m.born))
	}
	for _, r := range m.reqs {
		l.grant(i, r)
	}
	l.putMSHR(m)
	l.drainWaiting()
}

// drainWaiting reruns the lookups of waiting requests, oldest first, while
// an MSHR is free: each may now hit (an earlier fill brought its line),
// merge into a fetch a previous waiter started, or start its own.
func (l *L2) drainWaiting() {
	for l.waiting.len() > 0 && l.mshrs.len() < l.cfg.MSHRs {
		l.lookup(l.waiting.pop())
	}
}

// evict releases an L2 frame. Inclusivity requires revoking any L1 copies;
// dirty data (local or flushed from an owner) is written back to memory.
func (l *L2) evict(i int) {
	if !l.st.valid(i) {
		return
	}
	l.Stats.Evictions++
	if owner := l.ownerOf(i); owner >= 0 {
		if l.l1s[owner].invalidateLine(l.st.lineOf(i)) {
			l.st.markDirty(i)
		}
		l.Stats.InclInvals++
		l.owner[i] = 0
	}
	l.Stats.InclInvals += l.revoke(i, -1)
	if l.st.dirty(i) {
		l.Stats.Writebacks++
		if l.trace != nil {
			l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMWriteback,
				Unit: -1, Warp: -1, PC: -1, Addr: l.st.lineOf(i)})
		}
		l.dram.Writeback()
	}
	l.st.invalidate(i)
}

// OutstandingMisses reports the number of busy MSHRs (the timeline
// sampler reads this as the L2 MSHR occupancy).
func (l *L2) OutstandingMisses() int { return l.mshrs.len() }

// put records an L1 eviction (clean or dirty) so the directory stays
// precise. Dirty data merges into the L2 copy.
func (l *L2) put(from int, lineAddr uint64, dirty bool) {
	i := l.st.lookup(lineAddr)
	if i < 0 {
		// The L2 already evicted this line (the inclusive invalidation and
		// the L1's own eviction raced); the data went to memory then.
		return
	}
	l.dropSharer(i, from)
	if l.ownerOf(i) == from {
		l.owner[i] = 0
	}
	if dirty {
		l.st.markDirty(i)
	}
}

// dramReq is one fetch parked on the bus: the subscriber's pre-bound
// handler plus argument, released after the bus transfer and device latency.
type dramReq struct {
	h   engine.Handler
	arg uint64
}

// DRAM models main memory behind the L2: a fixed access latency plus a
// bandwidth-limited memory bus, with the controller pipelining requests
// (Table 3: 100-cycle latency, 16 GB/s bus).
type DRAM struct {
	q   *engine.Queue
	bus *Channel
	// Latency is the device access time charged after the bus transfer.
	Latency engine.Cycle

	// pending is the FIFO of in-flight fetches: the bus is FIFO (departure
	// order equals call order), so the pre-bound busHop handler pops the
	// front when each transfer arrives.
	pending fifo[dramReq]
	busHop  dramBusHop

	Accesses   uint64
	WritebackN uint64
}

type dramBusHop struct{ d *DRAM }

func (hp *dramBusHop) HandleEvent(uint64) {
	d := hp.d
	r := d.pending.pop()
	d.q.ScheduleAfter(d.Latency, r.h, r.arg)
}

// NewDRAM builds the memory model on the given bus.
func NewDRAM(q *engine.Queue, bus *Channel, latency engine.Cycle) *DRAM {
	d := &DRAM{q: q, bus: bus}
	d.busHop = dramBusHop{d}
	d.reset(latency)
	return d
}

// reset forgets every fetch in flight and zeroes the counters.
func (d *DRAM) reset(latency engine.Cycle) {
	d.Latency = latency
	d.pending.reset()
	d.Accesses, d.WritebackN = 0, 0
}

// FetchEvent schedules h.HandleEvent(arg) after the bus queuing plus device
// latency — the allocation-free path.
func (d *DRAM) FetchEvent(h engine.Handler, arg uint64) {
	d.Accesses++
	d.pending.push(dramReq{h: h, arg: arg})
	d.bus.SendEvent(&d.busHop, 0)
}

// Fetch schedules done after the bus queuing plus device latency.
func (d *DRAM) Fetch(done func()) {
	d.FetchEvent(engine.FuncHandler(done), 0)
}

// Writeback consumes bus bandwidth for an evicted dirty line; no one waits
// for it.
func (d *DRAM) Writeback() {
	d.Accesses++
	d.WritebackN++
	d.bus.Occupy()
}
