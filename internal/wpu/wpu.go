package wpu

import (
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
)

// WPU is one warp processing unit: an in-order, single-issue SIMD front end
// sequencing Width lanes across Warps warps, switching SIMD groups on every
// cache access to hide latency (§3.3), and optionally subdividing warps on
// branch and memory divergence (§4, §5).
type WPU struct {
	ID  int
	cfg Config

	q    *engine.Queue
	l1   *mem.L1
	fmem *mem.Memory
	prog *program.Program
	// code is the running program's pre-decoded dispatch stream (cached at
	// Launch): the issue loop indexes it once per instruction and switches
	// on the dense Kind instead of re-classifying isa.Op per issue.
	code []isa.Decoded

	// trace is the per-System observability sink (nil = disabled). Every
	// emission site nil-checks it so untraced runs pay a single branch.
	trace *obs.Trace

	warps []*Warp

	// The bounded scheduler (§5.6/§6.6): slots hold resident SIMD groups;
	// surplus splits queue in slotWait until a slot frees.
	slots []*Split
	// slotWait is the FIFO of splits waiting for a slot, in arrival order:
	// admission pops its front, and a split that dies queued leaves it.
	slotWait []*Split
	// slotWaitReady counts Ready splits in slotWait, maintained on every
	// queue edge and state transition so stall attribution never scans the
	// queue (it can hold dozens of splits in small-slot-count sweeps).
	slotWaitReady int
	rrNext        int
	cur           *Split
	// readyMask mirrors "slots[i] holds a Ready split" per bit, so the
	// per-cycle scheduler scan only visits ready slots. Maintained by
	// acquireSlot/releaseSlot/admitWaiter and setState. One word suffices:
	// Config.Validate caps SchedSlots at 64.
	readyMask uint64
	// slotProg mirrors slots[i].prog for resident splits, packed as
	// prog<<6|i: the per-cycle least-progressed scan min-reduces this
	// dense row (no Split pointer chased, no branch mispredicts) and the
	// low bits of the winner give the slot back. The packing preserves
	// ordering within one scan partition because equal progs tie-break to
	// the lower slot index there anyway. Synced by acquireSlot/admitWaiter
	// and syncProg at every prog mutation of a resident split. Slot indices
	// fit the 6 low bits because SchedSlots <= 64.
	slotProg []uint64

	splitCount  int // live scheduling entities, bounded by WSTEntries
	nextSplitID int
	// atBarrier counts splits parked at the kernel barrier and unhalted
	// counts live not-yet-halted threads, so AnyAtBarrier and Done are O(1)
	// instead of warp×split scans, and the roster hears of each change of
	// either answer where it happens (moveBarrier, addSplit, removeSplit).
	atBarrier int
	// memWait counts splits in WaitMem/WaitSlip so stallCycle classifies
	// most stalls without scanning. Maintained by setState/removeSplit.
	memWait int
	// memWaitDiv counts, of the memWait splits, those whose wait was caused
	// by a divergent access (some lanes hit, some missed — Split.waitDiv);
	// stallCycle attributes such stall cycles to StallMemDivergent.
	memWaitDiv int
	// wstFullAt holds q.Now()+1 at the most recent WST-full refusal (zero =
	// never refused), so stallCycle can attribute a same-cycle stall to the
	// full warp-split table. The +1 bias keeps cycle 0 distinguishable.
	wstFullAt engine.Cycle
	unhalted  int

	launched bool
	// progress counts state transitions that advance the machine without
	// issuing an instruction (scope arrivals, slip swaps, revivals); Tick
	// reports whether it or Stats.Issued moved, which is how the simulation
	// driver tells a stall from a deadlock.
	progress uint64

	// Sleep state (DESIGN.md "What changes in a cycle in which nothing
	// issues"). stallCycle sets asleep when no Tick can do anything but
	// repeat the same stall until an event reaches this WPU; Tick then
	// returns at once, and wake or Sync credits the cycles from sleepFrom on
	// to TickCycles and sleepBucket in one step. slept totals those credits.
	asleep      bool
	sleepFrom   engine.Cycle
	sleepBucket *uint64
	slept       uint64
	// roster is the run loop's account this WPU keeps current (Roster.Start
	// binds it; nil on a WPU no run loop drives).
	roster *Roster

	// Per-WPU instruction cache (Table 3); cold fetches stall issue. Each
	// distinct program gets its own fetch-address range so successive
	// kernels of a multi-pass workload coexist in the cache, as their code
	// would at distinct addresses on real hardware.
	icache          *icache
	fetchStallUntil engine.Cycle
	refill          wpuRefill
	// progBases assigns each distinct program its fetch-address range. It
	// is a small insertion-ordered slice, not a pointer-keyed map: a WPU
	// sees a handful of programs per workload, and pointer-keyed maps are
	// a determinism hazard (see cmd/dwslint's ptrmaprange check).
	progBases    []progBase
	nextProgBase int
	fetchBase    int

	// execMem scratch, reused across instructions: the coalesced line
	// groups of the instruction being issued, and the pooled completion
	// tokens its cache accesses carry (indexed by the event argument; see
	// HandleEvent). freeTok is the token free list.
	memGroups []lineGroup
	tokens    []memToken
	freeTok   []int32

	// stackPool recycles re-convergence stack slices between retired and
	// newly created splits: subdivision-heavy schemes (ReviveSplit in
	// particular) create and retire splits continuously in steady state,
	// and the pool keeps that churn allocation-free. A split's current
	// stack is exclusively owned — freezing moves the slice into the sync
	// scope and the split is immediately given a replacement — so a stack
	// recycled at removeSplit can have no live aliases.
	stackPool [][]StackEntry

	// Per-run objects come from arenas that hold the live ones and those
	// that died since the last Tick, so their size is bounded by the WST and
	// not by run length. A split, a scope or a slip group is released where
	// it dies (removeSplit, which also takes it out of the slot-wait queue;
	// maybeCompleteScope; a slip group absorbed, swapped in or promoted), and
	// nothing reads it after that: no token outlives its owner (see
	// memToken). It is handed out again only once epoch has moved on, that
	// is from the next Tick, since until the Tick or event that released it
	// returns, a caller up the stack may still name it. Launch and Reset
	// rewind the arenas whole; stale token owners are overwritten before a
	// completion can fire.
	splits slab[Split]
	scopes slab[SyncScope]
	slips  slab[slipEntry]
	epoch  uint64 // counts Ticks
	// parkedScratch is ReleaseBarrier's per-warp list of parked splits.
	parkedScratch []*Split

	// memBound holds the static worst-case line-transaction bound per pc
	// (-1 = no bound: non-memory or divergent-gather), recomputed at Launch
	// for this WPU's width/line/bank geometry. Populated only on traced
	// runs; execMem checks observed transactions against it and emits
	// EvMemBoundExceeded on violation (an analysis soundness bug).
	memBound []int32

	// Adaptive slip state (§5.7).
	maxSlip       int
	intervalStart uint64 // cycle count at last adaptation
	intervalBusy  uint64
	intervalWait  uint64

	Stats Stats
}

// New builds a WPU bound to its private L1 and the functional memory.
// trace is the per-System observability sink; nil disables event emission.
func New(id int, q *engine.Queue, cfg Config, l1 *mem.L1, fmem *mem.Memory, trace *obs.Trace) (*WPU, error) {
	ws, err := NewBank(q, cfg, []*mem.L1{l1}, fmem, trace)
	if err != nil {
		return nil, err
	}
	ws[0].ID = id
	return ws[0], nil
}

// NewBank builds one machine's WPUs, WPU i bound to l1s[i], in a single
// allocation that no other machine's memory can sit next to.
//
// WPU structs are the hottest written memory in the simulator — every issue
// bumps a dozen counters in one — and machines run concurrently, one per
// core. Allocated one by one they come from the allocator's 1408-byte size
// class, and when a collection falls between building two machines (it does
// at process start: two 1.8 MB machines cross the first GC trigger) the
// second machine's WPUs are carved from the same span as the first's,
// interleaved 1.4 KB apart. Measured on the 96-simulation report at -j 2: a
// process with such a layout runs ~25 % slower for as long as it recycles
// those machines (2.1 s vs 1.7 s per report, with identical GC and
// instruction counts; not with one worker, not with two processes — one
// core's hardware prefetchers pulling its neighbour's lines is the presumed
// mechanism), and which layout a process gets is decided by a race. A block
// above the allocator's 32 KB small-object limit gets a span of its own,
// hence the over-allocation; the unused tail is never touched.
func NewBank(q *engine.Queue, cfg Config, l1s []*mem.L1, fmem *mem.Memory, trace *obs.Trace) ([]*WPU, error) {
	const size = int(unsafe.Sizeof(WPU{}))
	bank := make([]WPU, max(len(l1s), 32<<10/size+1))
	ws := make([]*WPU, len(l1s))
	for i := range ws {
		ws[i] = &bank[i]
		ws[i].ID, ws[i].q = i, q
		if err := ws[i].Reset(cfg, l1s[i], fmem, trace); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// Reset returns the WPU to the state New would build for cfg — it is how
// New builds it. Every field is zeroed by assigning a fresh struct, and only
// capacity is carried over from the previous life (emptied queues, pools,
// arenas, and the arrays whose geometry cfg leaves unchanged), so a field
// added later starts from zero without Reset having to know about it. On
// error the WPU is untouched.
func (w *WPU) Reset(cfg Config, l1 *mem.L1, fmem *mem.Memory, trace *obs.Trace) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := *w
	clear(old.slotWait)
	clear(old.progBases)
	clear(old.tokens)
	*w = WPU{
		ID:      old.ID,
		cfg:     cfg,
		q:       old.q,
		l1:      l1,
		fmem:    fmem,
		trace:   trace,
		maxSlip: cfg.Width / 2,

		slotWait:      old.slotWait[:0],
		progBases:     old.progBases[:0],
		memGroups:     old.memGroups[:0],
		tokens:        old.tokens[:0],
		freeTok:       old.freeTok[:0],
		stackPool:     old.stackPool,
		splits:        old.splits,
		scopes:        old.scopes,
		slips:         old.slips,
		parkedScratch: old.parkedScratch,
	}
	w.rewindArenas()
	w.refill = wpuRefill{w}

	if len(old.slots) == cfg.SchedSlots {
		clear(old.slots)
		w.slots = old.slots
	} else {
		w.slots = make([]*Split, cfg.SchedSlots)
	}
	// Always 64 wide (not SchedSlots): pickNext reinterprets the row as
	// *[64]uint64 so its scan loop carries no bounds checks.
	if len(old.slotProg) == 64 {
		clear(old.slotProg)
		w.slotProg = old.slotProg
	} else {
		w.slotProg = make([]uint64, 64)
	}
	if w.icache = old.icache; w.icache != nil {
		w.icache.reset()
	} else {
		w.icache = newICache(program.ICacheLines, program.ICacheWays)
	}
	if len(old.warps) == cfg.Warps && old.cfg.Width == cfg.Width {
		w.warps = old.warps
		w.Stats.ThreadMisses = old.Stats.ThreadMisses
		for i, warp := range w.warps {
			warp.live, warp.halted = 0, 0
			clear(warp.splits)
			warp.splits = warp.splits[:0]
			warp.regs.Clear()
			clear(w.Stats.ThreadMisses[i])
		}
		return nil
	}
	w.Stats.ThreadMisses = make([][]uint64, cfg.Warps)
	for i := 0; i < cfg.Warps; i++ {
		w.Stats.ThreadMisses[i] = make([]uint64, cfg.Width)
		w.warps = append(w.warps, &Warp{
			id:   i,
			wpu:  w,
			regs: isa.NewLaneRegs(cfg.Width),
		})
	}
	return nil
}

// progBase records the fetch-address range assigned to one program.
type progBase struct {
	prog *program.Program
	base int
}

// wpuRefill is the icache refill completion: a pre-bound handler so a cold
// fetch schedules only a pooled event.
type wpuRefill struct{ w *WPU }

// The refill changes no state of its own: it ends the sleep of a front end
// stalled on fetchStallUntil, and as a pending event it tells the driver the
// machine is not deadlocked.
func (r *wpuRefill) HandleEvent(uint64) { r.w.wake(r.w.q.Now()) }

// lineGroup is one coalesced cache-line access of a SIMD memory
// instruction: the line address, the lanes it covers, and the pool index of
// the token routing its completion (hits that complete together share one).
type lineGroup struct {
	addr  uint64
	lanes Mask
	tok   int32
}

// HandleEvent completes the coalesced line accesses of one token; the
// argument indexes the token pool. The token is released before the owner's
// callback runs so the owner's next memory instruction can reuse it.
//
// Every completion wakes the WPU, whether or not it readies a split: a line
// arriving for part of a suspended group changes tryRevive's answer.
func (w *WPU) HandleEvent(arg uint64) {
	w.wake(w.q.Now())
	tok := &w.tokens[arg]
	owner, lanes := tok.owner, tok.lanes
	// The stale owner pointer stays in the pool slot — clearing it here
	// would cost a write barrier per completion, and allocToken overwrites
	// the slot before the token can be read again. A free slot has no lanes
	// (handOff relies on it).
	tok.lanes = 0
	w.freeTok = append(w.freeTok, int32(arg))
	owner.onLineDone(lanes)
}

// allocToken takes a completion token from the pool. Only indexes are held
// across the access, so pool growth is safe.
func (w *WPU) allocToken(lanes Mask) int32 {
	if n := len(w.freeTok); n > 0 {
		ti := w.freeTok[n-1]
		w.freeTok = w.freeTok[:n-1]
		// Refresh lanes only: zeroing the interface field would cost a
		// write barrier per access, and every execMem exit path routes
		// assignOwner over the full hit∪miss mask — which covers every
		// group — before a completion event can fire.
		w.tokens[ti].lanes = lanes
		return ti
	}
	w.tokens = append(w.tokens, memToken{lanes: lanes})
	return int32(len(w.tokens) - 1)
}

// handOff gives the in-flight completions of from's pending lanes to heir,
// the group absorbing from's threads. Those tokens' lanes add up to pending
// exactly and a free slot has none, so the scan stops once they are found.
func (w *WPU) handOff(from, heir completionTarget, pending Mask) {
	for i := range w.tokens {
		if pending == 0 {
			return
		}
		if t := &w.tokens[i]; t.lanes&pending != 0 && t.owner == from {
			t.owner = heir
			pending &^= t.lanes
		}
	}
}

// assignOwner routes the current instruction's tokens whose lanes overlap
// to target. Ownership is assigned in the same cycle the accesses issue —
// before any completion can fire (completions are events).
func (w *WPU) assignOwner(target completionTarget, lanes Mask) {
	for _, g := range w.memGroups {
		if g.lanes&lanes != 0 {
			w.tokens[g.tok].owner = target
		}
	}
}

// Config returns the (defaulted) configuration.
func (w *WPU) Config() Config { return w.cfg }

// ThreadCapacity returns Warps × Width.
func (w *WPU) ThreadCapacity() int { return w.cfg.Warps * w.cfg.Width }

// emit records one structured trace event. Callers nil-check w.trace
// before calling so the disabled path never constructs the Event.
func (w *WPU) emit(kind obs.EventKind, warp, pc int, mask, mask2 Mask) {
	//dwslint:ignore every emit caller nil-checks w.trace first (zero-cost pattern)
	w.trace.Emit(obs.Event{
		Cycle: uint64(w.q.Now()), Kind: kind, Unit: w.ID,
		Warp: warp, PC: pc, Mask: uint64(mask), Mask2: uint64(mask2),
	})
}

// LiveSplits returns the number of live scheduling entities — the current
// warp-split table occupancy (the timeline sampler reads this).
func (w *WPU) LiveSplits() int { return w.splitCount }

// ResidentSplits counts scheduler slots currently held by a SIMD group.
func (w *WPU) ResidentSplits() int {
	n := 0
	for _, s := range w.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// SlotWaiters returns how many splits are queued for a scheduler slot.
func (w *WPU) SlotWaiters() int { return len(w.slotWait) }

// MemParams is the geometry the static per-access transaction bounds of a
// WPU configured by c, on an L1 configured by l1, are computed against: the
// one translation of a machine into program.MemParams (Launch and
// sim.CostParamsFor both call it).
func MemParams(c Config, l1 mem.L1Config) program.MemParams {
	return program.MemParams{
		Lanes:     c.Width,
		LineBytes: int64(l1.LineSize),
		Banks:     l1.Banks,
		TidStep:   int64(max(c.LaneTidStep, 1)),
	}
}

// Launch starts a kernel: regs[i] is the initial register file of the i-th
// hardware thread (warp-major layout: warp = i/Width, lane = i%Width).
// A previous kernel must have completed. Statistics accumulate across
// launches so multi-pass workloads report totals.
func (w *WPU) Launch(prog *program.Program, regs []isa.RegFile) error {
	if w.launched && !w.Done() {
		return fmt.Errorf("wpu %d: Launch while a kernel is still running", w.ID)
	}
	if len(regs) > w.ThreadCapacity() {
		return fmt.Errorf("wpu %d: %d threads exceed capacity %d", w.ID, len(regs), w.ThreadCapacity())
	}
	if !prog.Verified() {
		// The re-convergence stack and WST trust the program's branch
		// metadata; only programs that passed the static verifier (every
		// path through program.Build) are safe to run.
		return fmt.Errorf("wpu %d: program %q has not passed the static verifier", w.ID, prog.Name)
	}
	// The static cost model's trip bounds rest on the declared input
	// ranges; a launch value outside them would silently void every bound,
	// so reject it here the way capacity violations are rejected.
	for _, u := range prog.UniformRanges() {
		for i := range regs {
			if v := regs[i].Get(u.Reg); v < u.Lo || v > u.Hi {
				return fmt.Errorf("wpu %d: program %q: thread %d launches r%d=%d outside its declared range [%d,%d]",
					w.ID, prog.Name, i, u.Reg, v, u.Lo, u.Hi)
			}
		}
	}
	w.prog = prog
	w.code = prog.Decoded()
	// Recompute the static worst-case transaction bounds for THIS WPU's
	// geometry (width, line size, bank count, lane tid step) — the bounds
	// baked into the program table use program.DefaultMemParams, which need
	// not match. Only traced runs pay for this: the bound check exists to
	// back the concordance harness, and untraced hot paths skip it.
	w.memBound = nil
	if w.trace != nil {
		w.memBound = make([]int32, len(prog.Code))
		for i := range w.memBound {
			w.memBound[i] = -1
		}
		for _, a := range prog.MemAccessFor(MemParams(w.cfg, w.l1.Config())) {
			w.memBound[a.PC] = int32(a.Transactions)
		}
	}
	base := -1
	for _, pb := range w.progBases {
		if pb.prog == prog {
			base = pb.base
			break
		}
	}
	if base < 0 {
		base = w.nextProgBase
		w.progBases = append(w.progBases, progBase{prog: prog, base: base})
		// Round the next base up to a line boundary past this program.
		w.nextProgBase = base + (len(prog.Code)/program.ICacheInstPerLine+1)*program.ICacheInstPerLine
	}
	w.fetchBase = base
	w.launched = true
	w.asleep = false
	w.cur = nil
	w.rrNext = 0
	clear(w.slotWait)
	w.slotWait = w.slotWait[:0]
	w.slotWaitReady = 0
	for i := range w.slots {
		w.slots[i] = nil
	}
	w.readyMask = 0
	w.splitCount = 0
	w.atBarrier = 0
	w.memWait = 0
	w.memWaitDiv = 0
	w.wstFullAt = 0
	w.unhalted = 0
	w.rewindArenas()
	for wi, warp := range w.warps {
		warp.live = 0
		warp.halted = 0
		clear(warp.splits)
		warp.splits = warp.splits[:0]
		if start := wi * w.cfg.Width; start < len(regs) {
			cnt := len(regs) - start
			if cnt > w.cfg.Width {
				cnt = w.cfg.Width
			}
			warp.regs.SetThreads(regs[start : start+cnt])
			for l := 0; l < cnt; l++ {
				warp.live |= LaneMask(l)
			}
		}
		w.unhalted += warp.live.Count()
		if warp.live != 0 {
			root := w.newSplit(warp, warp.live, 0, nil)
			root.state = Ready
			w.addSplit(root)
		}
	}
	return nil
}

// Done reports whether every launched thread has halted.
func (w *WPU) Done() bool {
	if !w.launched {
		return true
	}
	return w.unhalted == 0 && w.splitCount == 0
}

// newSplit allocates a split with a fresh base stack.
func (w *WPU) newSplit(warp *Warp, mask Mask, pc int, scope *SyncScope) *Split {
	w.nextSplitID++
	return w.splits.put(Split{
		id:    w.nextSplitID,
		warp:  warp,
		mask:  mask,
		pc:    pc,
		state: Ready,
		stack: w.newStack(pc, mask),
		scope: scope,
		born:  w.q.Now(),
	}, w.epoch)
}

// rewindArenas makes every per-run object of the finished kernel available
// to the next; see the arena fields for why that is safe at Launch.
func (w *WPU) rewindArenas() {
	w.splits.rewind()
	w.scopes.rewind()
	w.slips.rewind()
}

// newStack returns a single-entry base stack, recycled from the pool when
// possible. The spare capacity covers typical branch-nesting depth so the
// conventional push path does not reallocate either.
func (w *WPU) newStack(pc int, mask Mask) []StackEntry {
	var st []StackEntry
	if n := len(w.stackPool); n > 0 {
		st = w.stackPool[n-1][:1]
		w.stackPool = w.stackPool[:n-1]
	} else {
		st = make([]StackEntry, 1, 8)
	}
	st[0] = StackEntry{ReconvPC: program.NoIPdom, PC: pc, Mask: mask}
	return st
}

// resetStack rebases s's stack to a single entry after a subdivision. When
// the old stack was frozen into a sync scope the scope now owns the slice
// and s needs a fresh one; otherwise the old slice is s's own (subdivision
// without freezing only happens at base stack) and is reused in place.
func (w *WPU) resetStack(s *Split, frozen bool, pc int, mask Mask) {
	if frozen {
		s.stack = w.newStack(pc, mask)
		return
	}
	s.stack = s.stack[:1]
	s.stack[0] = StackEntry{ReconvPC: program.NoIPdom, PC: pc, Mask: mask}
}

// Tick advances the WPU by one cycle: issue one instruction from the
// current SIMD group, or pick another ready group, or stall. It reports
// whether the machine advanced — an instruction issued, or a state
// transition that needs no issue slot happened (see progress). The driver
// calls it once per cycle on each WPU its roster holds awake, after
// delivering that cycle's events. A caller that ticks a WPU every cycle, as
// the package's tests do, finds it returning at once while the WPU sleeps
// (see stallCycle) or is done.
func (w *WPU) Tick() bool {
	if w.asleep || w.Done() {
		return false
	}
	w.Stats.TickCycles++
	w.epoch++
	w.adaptSlip()

	// Fine-grained round-robin: pick a ready SIMD group each cycle (switching
	// costs nothing, §3.3). Interleaving sibling warp-splits keeps them in
	// near-lockstep so PC-based re-convergence re-unites them promptly at
	// control-flow joins (Figure 6d).
	// A cold instruction fetch stalls the front end until the refill
	// arrives (rare: kernels are resident after the cold start).
	if w.q.Now() < w.fetchStallUntil {
		w.stallCycle(false)
		return false
	}
	before := w.progress
	w.cur = w.pickNext()
	if w.cur == nil && w.cfg.MemScheme == ReviveSplit {
		if w.tryRevive() {
			w.cur = w.pickNext()
		}
	}
	if w.cur != nil && w.issueOne(w.cur) {
		return true
	}
	progressed := w.progress != before
	w.stallCycle(progressed)
	return progressed
}

// Sync credits a sleeping WPU the cycles it has skipped, sleepFrom up to but
// not including upTo, so that Stats are exact for a reader in mid-run; the
// WPU stays asleep. It does nothing to a WPU that is awake, nor when upTo is
// not past sleepFrom: an event scheduled with no delay by the very cycle that
// put the WPU to sleep is delivered with that cycle's timestamp.
func (w *WPU) Sync(upTo engine.Cycle) {
	if !w.asleep || upTo <= w.sleepFrom {
		return
	}
	n := uint64(upTo - w.sleepFrom)
	w.Stats.TickCycles += n
	*w.sleepBucket += n
	w.slept += n
	w.sleepFrom = upTo
}

// wake ends a sleep: whatever calls it may change what the next Tick does.
// An event handler passes the current cycle, which Tick has yet to run. The
// WPU rejoins the roster's awake set; it cannot be done while asleep (see
// DESIGN.md), so it belongs there.
func (w *WPU) wake(upTo engine.Cycle) {
	if !w.asleep {
		return
	}
	w.Sync(upTo)
	w.asleep = false
	if w.roster != nil {
		w.roster.add(w.ID)
	}
}

// Asleep reports whether Tick is a no-op until an event, a barrier release
// or a launch reaches this WPU.
func (w *WPU) Asleep() bool { return w.asleep }

// SleptCycles returns how many of TickCycles were credited in bulk rather
// than ticked one by one: what the sleep saved the host, not a property of
// the simulated machine, hence not in Stats.
func (w *WPU) SleptCycles() uint64 { return w.slept }

// issueOne executes one instruction for the split's active mask. It
// returns false when the cycle degenerated into a stall (slip swap wait).
// The instruction comes from the pre-decoded dispatch stream: one index,
// one switch on the dense Kind, and per-op lane loops inside the arms.
func (w *WPU) issueOne(s *Split) bool {
	if !w.icache.Fetch(w.fetchBase + s.pc) {
		w.Stats.IFetchMisses++
		w.fetchStallUntil = w.q.Now() + program.IMissLat
		// The refill is an event: it keeps the machine's clock honest (the
		// deadlock detector knows something is still in flight).
		w.q.ScheduleAt(w.fetchStallUntil, &w.refill, 0)
		return false
	}
	d := &w.code[s.pc]

	// Adaptive slip: absorb fall-behind groups whose PC we revisit (§5.7),
	// and stall at conditional branches until all slipped threads caught up
	// (SlipOn only; Slip.BranchBypass proceeds).
	if w.cfg.Slip != SlipOff {
		w.slipAbsorb(s)
		if s.state != Ready {
			return false
		}
		needJoin := d.Kind == isa.KindBranch && w.cfg.Slip == SlipOn
		if needJoin && len(s.slipped) > 0 {
			if w.slipSwapIn(s) {
				d = &w.code[s.pc]
			} else if len(s.slipped) > 0 {
				s.waitDiv = true // slipped groups exist only after divergence
				w.setState(s, WaitSlip)
				return false
			}
			// Otherwise all fall-behind groups were promoted to their own
			// splits; the branch can proceed for the remaining mask.
		}
	}

	// BranchLimited re-convergence (§5.3.1): memory-divergence splits stall
	// and re-merge at the next conditional branch.
	if d.Kind == isa.KindBranch && s.scope != nil && s.scope.limitControl && s.baseStack() {
		w.arriveAtScope(s)
		return false
	}

	w.Stats.Issued++
	w.Stats.BusyCycles++
	w.intervalBusy++
	s.prog++
	w.syncProg(s) // s came from pickNext: always resident
	width := uint64(s.mask.Count())
	w.Stats.ThreadOps += width
	if d.Flags&isa.DFFloat != 0 {
		w.Stats.FloatOps += width
	}

	switch d.Kind {
	case isa.KindHalt:
		w.finishHalt(s)
	case isa.KindBarrier:
		w.enterBarrier(s)
	case isa.KindJmp:
		s.pc = int(d.Target)
		w.postPCUpdate(s)
	case isa.KindBranch:
		w.execBranch(s, d)
	case isa.KindMem:
		w.execMem(s, d)
		w.cur = nil // switch SIMD groups on every cache access (§3.3)
	default: // KindALU
		isa.ExecALULanes(d, s.warp.regs, uint64(s.mask))
		s.pc++
		w.postPCUpdate(s)
	}
	// PC-based re-convergence (§4.5): a ready sibling parked at the PC the
	// running split just reached re-unites with it at no cost to either —
	// the sibling was waiting for issue anyway.
	if w.cfg.PCReconv && s.state == Ready {
		w.tryPCMerge(s)
	}
	return true
}

// postPCUpdate applies re-convergence stack pops, retires empty splits and
// registers sync-scope arrivals after any PC change. It may consume s.
func (w *WPU) postPCUpdate(s *Split) {
	if s.state == Dead {
		return
	}
	for {
		s.mask &^= s.warp.halted
		if !s.baseStack() {
			if s.mask.Empty() || s.pc == s.tos().ReconvPC {
				s.stack = s.stack[:len(s.stack)-1]
				e := s.tos()
				s.pc = e.PC
				s.mask = e.Mask
				continue
			}
			return
		}
		if s.mask.Empty() {
			w.retire(s)
			return
		}
		if s.scope != nil && s.pc == s.scope.reconvPC {
			w.arriveAtScope(s)
			return
		}
		return
	}
}

// retire removes a split whose threads have all halted (or merged away),
// updating any scope waiting on them.
func (w *WPU) retire(s *Split) {
	w.promoteAllSlip(s)
	sc := s.scope
	w.removeSplit(s)
	if sc != nil {
		w.maybeCompleteScope(sc)
	}
}

// finishHalt terminates the split's active threads. With a non-base stack
// the sibling/parent paths continue; with slip leftovers the fall-behind
// threads take over; otherwise the split retires.
func (w *WPU) finishHalt(s *Split) {
	w.warpHalt(s.warp, s.mask)
	s.mask = 0
	if len(s.parked) > 0 {
		// A parked run-ahead group exists (slip): resume it.
		p := s.parked[len(s.parked)-1]
		s.parked = s.parked[:len(s.parked)-1]
		s.mask = p.mask
		s.pc = p.pc
		return
	}
	if len(s.slipped) > 0 {
		if !w.slipSwapIn(s) && len(s.slipped) > 0 {
			s.waitDiv = true
			w.setState(s, WaitSlip)
		}
		if s.state == WaitSlip || !s.mask.Empty() {
			return
		}
	}
	w.postPCUpdate(s)
}

func (w *WPU) warpHalt(warp *Warp, mask Mask) {
	w.unhalted -= (mask &^ warp.halted).Count()
	warp.halted |= mask
}

// enterBarrier parks the split at a kernel-wide barrier. Barriers are only
// legal outside divergent regions; kernels violating that are authoring
// bugs, caught here.
func (w *WPU) enterBarrier(s *Split) {
	if !s.baseStack() {
		panic(fmt.Sprintf("wpu: %s reached a barrier inside a divergent region", s))
	}
	if len(s.slipped) > 0 {
		if w.slipSwapIn(s) {
			return
		}
		if len(s.slipped) > 0 {
			s.waitDiv = true
			w.setState(s, WaitSlip)
			return
		}
	}
	w.setState(s, AtBarrier)
	w.moveBarrier(1)
	w.releaseSlot(s)
}

// BarrierReady reports whether every live thread on this WPU is parked at
// a barrier (vacuously true when the WPU is done).
func (w *WPU) BarrierReady() bool {
	if !w.launched {
		return true
	}
	for _, warp := range w.warps {
		var at Mask
		for _, s := range warp.splits {
			if s.state == AtBarrier {
				at |= s.mask
			}
		}
		if at != warp.liveUnhalted() {
			return false
		}
	}
	return true
}

// AnyAtBarrier reports whether at least one split is parked at a barrier.
func (w *WPU) AnyAtBarrier() bool { return w.atBarrier > 0 }

// ReleaseBarrier resumes all parked splits past the barrier, re-forming one
// full SIMD group per warp.
//
// The driver releases after the cycle's ticks, so a WPU asleep at the
// barrier is credited through the current cycle.
func (w *WPU) ReleaseBarrier() {
	w.wake(w.q.Now() + 1)
	for _, warp := range w.warps {
		parked := w.parkedScratch[:0]
		for _, s := range warp.splits {
			if s.state == AtBarrier {
				parked = append(parked, s)
			}
		}
		w.parkedScratch = parked
		if len(parked) == 0 {
			continue
		}
		root := parked[0]
		for _, o := range parked[1:] {
			root.mask |= o.mask
			o.scope = nil
			w.removeSplit(o)
		}
		root.scope = nil
		root.pc++
		root.state = Ready
		w.moveBarrier(-1)
		root.stack[0] = StackEntry{ReconvPC: program.NoIPdom, PC: root.pc, Mask: root.mask}
		w.acquireSlot(root)
	}
}

// execBranch evaluates a conditional branch lane by lane: an outcome every
// active lane agrees on just steers the split (no stack push); a divergent
// one takes dynamic warp subdivision (§4) or conventional stack push
// serialisation.
func (w *WPU) execBranch(s *Split, d *isa.Decoded) {
	// The predicate register across all lanes is one contiguous SoA row;
	// taken-on-nonzero vs taken-on-zero is a pre-decoded flag.
	pred := s.warp.regs.Row(d.SrcA)
	nz := d.Flags&isa.DFBranchNZ != 0

	var taken Mask
	for m := uint64(s.mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		if (pred[lane] != 0) == nz {
			taken |= LaneMask(lane)
		}
	}
	notTaken := s.mask &^ taken

	w.Stats.Branches++
	if taken.Empty() || notTaken.Empty() {
		if notTaken.Empty() {
			s.pc = int(d.Target)
		} else {
			s.pc++
		}
		w.postPCUpdate(s)
		return
	}

	w.Stats.DivBranch++
	if w.trace != nil {
		w.emit(obs.EvBranchDiverge, s.warp.id, s.pc, taken, notTaken)
	}
	// Re-convergence comes from the verified table (recomputed by the
	// verifier's independent post-dominator pass), folded into the decoded
	// stream at Build time; -1 encodes program.NoIPdom.
	reconvPC := int(d.Reconv)
	if reconvPC < 0 {
		reconvPC = program.NoIPdom
	}

	subdivide := false
	switch {
	case s.scope != nil:
		// Already in asynchronous subdivided mode (§4.4): nested divergent
		// branches keep subdividing (BranchLimited scopes never get here —
		// they arrive at the branch instead).
		subdivide = w.wstRoom()
	case w.cfg.SubdivideOnBranch && d.Flags&isa.DFSubdiv != 0:
		// Subdivide only when the WPU actually needs another SIMD group to
		// hide latency; otherwise the conventional stack serialises the arms
		// at the same issue cost with a guaranteed re-join. (The paper gates
		// memory subdivision this way — LazySplit, §5.2 — and motivates the
		// same over-subdivision concern for branches in §4.3; our kernels'
		// basic blocks are small enough that the static filter alone lets
		// busy pipelines shred, so the laziness applies here too.)
		subdivide = w.readyOthers(s) < w.cfg.BranchLazyThreshold && w.wstRoom()
	}

	if subdivide {
		w.subdivideBranch(s, taken, notTaken, int(d.Target))
		return
	}

	// Conventional re-convergence stack (Fung et al.): serialise the paths.
	parent := s.tos()
	parent.PC = reconvPC
	s.stack = append(s.stack,
		StackEntry{ReconvPC: reconvPC, PC: s.pc + 1, Mask: notTaken},
		StackEntry{ReconvPC: reconvPC, PC: int(d.Target), Mask: taken},
	)
	s.pc = int(d.Target)
	s.mask = taken
	w.postPCUpdate(s)
}

// coalesce merges one lane's line address into the scratch group list.
// The list is scanned linearly: a SIMD access touches at most Width lines
// and usually far fewer, so a map would cost more than it saves.
func coalesce(groups []lineGroup, la uint64, lane int) []lineGroup {
	for i := range groups {
		if groups[i].addr == la {
			groups[i].lanes |= LaneMask(lane)
			return groups
		}
	}
	return append(groups, lineGroup{addr: la, lanes: LaneMask(lane)})
}

// execMem issues one SIMD memory instruction: functional execution at
// issue, per-line coalescing into the banked L1, divergence detection, and
// the configured subdivision or slip response.
func (w *WPU) execMem(s *Split, d *isa.Decoded) {
	warp := s.warp
	write := d.Flags&isa.DFStore != 0
	s.memSince++

	// Functional execution and per-line coalescing over SoA rows: the base
	// register row gives every lane's address with one index, and loads
	// store straight into the destination row (a store to r0 was redirected
	// to the discard row at decode time). The group list is reused scratch
	// scanned linearly: a SIMD access touches at most Width lines and
	// usually far fewer, so a map would cost more than it saves.
	base := warp.regs.Row(d.SrcA)
	groups := w.memGroups[:0]
	if write {
		val := warp.regs.Row(d.SrcB)
		for v := uint64(s.mask); v != 0; v &= v - 1 {
			lane := bits.TrailingZeros64(v)
			addr := uint64(base[lane] + d.Imm)
			w.fmem.Write(addr, val[lane])
			groups = coalesce(groups, w.l1.Line(addr), lane)
		}
	} else {
		dst := warp.regs.Row(d.Dst)
		for v := uint64(s.mask); v != 0; v &= v - 1 {
			lane := bits.TrailingZeros64(v)
			addr := uint64(base[lane] + d.Imm)
			dst[lane] = w.fmem.Read(addr)
			groups = coalesce(groups, w.l1.Line(addr), lane)
		}
	}
	w.memGroups = groups

	w.Stats.MemAccesses++
	cls := d.MemClass()
	w.Stats.MemClassAccesses[cls]++
	w.Stats.MemClassTransactions[cls] += uint64(len(groups))
	if w.memBound != nil {
		if b := w.memBound[s.pc]; b >= 0 && int32(len(groups)) > b {
			w.Stats.MemBoundExceeded++
			w.emit(obs.EvMemBoundExceeded, warp.id, s.pc, s.mask, Mask(len(groups)))
		}
	}

	// A hit ready in the same cycle as the hit before it, with no miss in
	// between, joins that hit's completion token instead of scheduling an
	// event of its own: the two events would have been adjacent in one
	// bucket FIFO, and every caller of assignOwner gives all of an access's
	// hits one owner (DESIGN.md "One completion per access per cycle").
	var hitMask, missMask Mask
	lastTok, lastReady := int32(-1), engine.Cycle(0)
	for i := range groups {
		g := &groups[i]
		g.tok = w.allocToken(g.lanes)
		ready, hit := w.l1.AccessReady(g.addr, write, w, uint64(g.tok))
		if !hit {
			missMask |= g.lanes
			lastTok = -1
			continue
		}
		hitMask |= g.lanes
		if lastTok >= 0 && ready == lastReady {
			w.tokens[lastTok].lanes |= g.lanes
			w.tokens[g.tok].lanes = 0
			w.freeTok = append(w.freeTok, g.tok)
			g.tok = lastTok
			continue
		}
		w.q.ScheduleAt(ready, w, uint64(g.tok))
		lastTok, lastReady = g.tok, ready
	}

	if missMask != 0 {
		w.Stats.MemWithMiss++
		missMask.Lanes(func(lane int) {
			w.Stats.ThreadMisses[warp.id][lane]++
		})
	}
	divergent := hitMask != 0 && missMask != 0
	if divergent {
		w.Stats.MemDivergent++
	}

	s.pc++ // the instruction is architecturally complete; data is pending

	if divergent && w.cfg.Slip != SlipOff {
		if w.trySlip(s, hitMask, missMask) {
			return
		}
	} else if divergent && w.cfg.MemScheme != MemNone {
		if w.shouldMemSubdivide(s) {
			w.subdivideMem(s, hitMask, missMask)
			return
		}
	}

	// Default: the whole group waits for its slowest thread.
	s.waitDiv = divergent
	w.setState(s, WaitMem)
	s.pending = s.mask
	w.assignOwner(s, s.mask)
	w.tryWaitMerge(s)
}

// onLineDone is the completion target for a split waiting on memory.
func (s *Split) onLineDone(lanes Mask) {
	s.pending &^= lanes
	if s.pending.Empty() && s.state == WaitMem {
		s.warp.wpu.becomeReady(s)
	}
}

// becomeReady transitions a split out of WaitMem, applying re-convergence.
func (w *WPU) becomeReady(s *Split) {
	w.setState(s, Ready)
	w.settle(s)
}
