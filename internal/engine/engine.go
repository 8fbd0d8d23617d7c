// Package engine provides the deterministic discrete-event core used by the
// DWS simulator. Components schedule callbacks at absolute cycle times on an
// EventQueue; the simulation driver interleaves event delivery with
// per-cycle ticks of the cycle-driven components (the WPU pipelines).
//
// Determinism matters: every experiment in the paper is a relative
// comparison between configurations, so two runs of the same configuration
// must produce identical cycle counts. Events scheduled for the same cycle
// are delivered in FIFO order of scheduling.
//
// # Implementation
//
// The queue is a hierarchical timing wheel: events within the next
// wheelSize cycles go into a bucket indexed by the low bits of their
// timestamp, and because the window is exactly wheelSize cycles wide, each
// bucket only ever holds events of a single timestamp — an intrusive FIFO
// list that preserves scheduling order for free. Events further out land in
// a small overflow min-heap ordered by (when, seq). Nearly all simulator
// latencies (L1 hit, L2 lookup, crossbar, DRAM) are below the window, so
// the steady-state path never touches the heap.
//
// Delivery order is exactly the (when, seq) FIFO order of the old binary
// heap (kept as the differential-test oracle in heapq_test.go): at each
// timestamp T the overflow events are drained before the bucket list, which
// is correct because an event can only be in overflow at T if it was
// scheduled while T-now >= wheelSize, and an event can only be in the
// bucket if it was scheduled while T-now < wheelSize — now is monotonic, so
// every overflow event at T carries a strictly smaller seq than every
// bucket event at T.
//
// Event records come from a free list and callbacks dispatch through the
// Handler interface with a caller-chosen uint64 argument, so the
// steady-state schedule/deliver cycle allocates nothing (see
// TestQueueSteadyStateAllocFree and BenchmarkEngineSteadyState).
package engine

import "math/bits"

// Cycle is a point in simulated time, measured in WPU clock cycles.
type Cycle uint64

// Handler is the allocation-free callback path: components pre-bind one
// Handler per completion kind at construction time and route per-event
// context through the uint64 argument (a line address, a pool index), so
// scheduling an event captures nothing.
type Handler interface {
	HandleEvent(arg uint64)
}

// FuncHandler adapts a plain closure to Handler for call sites that are not
// allocation-sensitive (tests, one-shot setup). A closure that captures
// allocates at its creation site, so hot paths implement Handler directly.
type FuncHandler func()

// HandleEvent runs the wrapped closure, ignoring the argument.
func (f FuncHandler) HandleEvent(uint64) { f() }

const (
	wheelBits = 8
	// wheelSize is the near-future window in cycles. Every event scheduled
	// less than wheelSize cycles ahead goes into the wheel; the window is
	// sized to cover all per-hop latencies of the simulated machine
	// (Table 3 maxes out at the 100-cycle DRAM access).
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// event is one scheduled callback; pooled on a free list and linked
// intrusively both in wheel buckets and on the free list.
type event struct {
	when Cycle
	seq  uint64 // tie-break: FIFO among events at the same cycle
	arg  uint64
	h    Handler
	next *event
}

// bucket is one wheel slot: a FIFO list of events sharing a timestamp.
type bucket struct {
	head, tail *event
}

// Queue is a deterministic event queue. The zero value is ready to use.
type Queue struct {
	now Cycle
	seq uint64
	n   int // total pending events

	wheel    [wheelSize]bucket
	occupied [wheelSize / 64]uint64 // bitmap of non-empty buckets
	wheelN   int

	// overflow is a min-heap by (when, seq) of events at or beyond the
	// wheel window; the backing array is reused across pops.
	overflow []*event

	// nextDue caches the earliest pending timestamp (exact whenever n > 0):
	// schedule lowers it, delivery recomputes it — so the per-cycle
	// RunUntil call in the simulation driver is one comparison when nothing
	// is due.
	nextDue Cycle

	free *event // event pool
}

// Now returns the current simulated cycle.
func (q *Queue) Now() Cycle { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

func (q *Queue) get() *event {
	e := q.free
	if e == nil {
		return new(event)
	}
	q.free = e.next
	e.next = nil
	return e
}

func (q *Queue) put(e *event) {
	e.h = nil
	e.next = q.free
	q.free = e
}

// ScheduleAt schedules h.HandleEvent(arg) at absolute cycle when.
// Scheduling in the past (when < Now) is a programming error and panics,
// because it would make the simulation non-causal.
func (q *Queue) ScheduleAt(when Cycle, h Handler, arg uint64) {
	if when < q.now {
		panic("engine: event scheduled in the past")
	}
	e := q.get()
	q.seq++
	e.when, e.seq, e.h, e.arg = when, q.seq, h, arg
	q.schedule(e)
}

// ScheduleAfter schedules h.HandleEvent(arg) delay cycles from now.
func (q *Queue) ScheduleAfter(delay Cycle, h Handler, arg uint64) {
	q.ScheduleAt(q.now+delay, h, arg)
}

func (q *Queue) schedule(e *event) {
	if q.n == 0 || e.when < q.nextDue {
		q.nextDue = e.when
	}
	q.n++
	if e.when-q.now < wheelSize {
		idx := int(e.when) & wheelMask
		b := &q.wheel[idx]
		if b.tail == nil {
			b.head = e
			q.occupied[idx>>6] |= 1 << uint(idx&63)
		} else {
			b.tail.next = e
		}
		b.tail = e
		q.wheelN++
		return
	}
	q.overflow = append(q.overflow, e)
	q.siftUp(len(q.overflow) - 1)
}

// less orders the overflow heap by (when, seq).
func evLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(i int) {
	h := q.overflow
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *Queue) popOverflow() *event {
	h := q.overflow
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	q.overflow = h[:last]
	// Sift down.
	h = q.overflow
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && evLess(h[r], h[l]) {
			m = r
		}
		if !evLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return e
}

// wheelNext returns the earliest timestamp present in the wheel; it must
// only be called when wheelN > 0. Scanning bucket indexes upward from
// now's slot (wrapping) visits timestamps in increasing order because the
// wheel only holds events in [now, now+wheelSize).
func (q *Queue) wheelNext() Cycle {
	start := int(q.now) & wheelMask
	wi := start >> 6
	w := q.occupied[wi] &^ (1<<uint(start&63) - 1)
	for i := 0; i <= len(q.occupied); i++ {
		if w != 0 {
			idx := wi<<6 + bits.TrailingZeros64(w)
			return q.wheel[idx].head.when
		}
		wi++
		if wi == len(q.occupied) {
			wi = 0
		}
		w = q.occupied[wi]
	}
	panic("engine: wheel events pending but no occupied bucket")
}

// nextTime reports the earliest pending timestamp.
func (q *Queue) nextTime() (Cycle, bool) {
	if q.n == 0 {
		return 0, false
	}
	var t Cycle
	ok := false
	if q.wheelN > 0 {
		t, ok = q.wheelNext(), true
	}
	if len(q.overflow) > 0 {
		if ot := q.overflow[0].when; !ok || ot < t {
			t, ok = ot, true
		}
	}
	return t, ok
}

func (q *Queue) dispatch(e *event) {
	h, arg := e.h, e.arg
	q.put(e) // recycle before dispatch so the handler can reuse it
	h.HandleEvent(arg)
}

// runAt delivers every event at timestamp t — overflow first (see the
// package comment for why that is exactly seq order), then the bucket FIFO,
// including events the handlers themselves schedule for t — and recomputes
// nextDue.
func (q *Queue) runAt(t Cycle) {
	q.now = t
	for len(q.overflow) > 0 && q.overflow[0].when == t {
		q.n--
		q.dispatch(q.popOverflow())
	}
	idx := int(t) & wheelMask
	b := &q.wheel[idx]
	for b.head != nil {
		e := b.head
		b.head = e.next
		if b.head == nil {
			b.tail = nil
		}
		q.wheelN--
		q.n--
		q.dispatch(e)
	}
	q.occupied[idx>>6] &^= 1 << uint(idx&63)
	if t2, ok := q.nextTime(); ok {
		q.nextDue = t2
	}
}

// RunUntil delivers all events with time <= cycle and advances Now to cycle.
func (q *Queue) RunUntil(cycle Cycle) {
	for q.n > 0 && q.nextDue <= cycle {
		q.runAt(q.nextDue)
	}
	if cycle > q.now {
		q.now = cycle
	}
}

// NextEventTime reports the time of the earliest pending event. ok is false
// when the queue is empty.
func (q *Queue) NextEventTime() (when Cycle, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.nextDue, true
}

// Reset returns the queue to its zero-value state — time 0, nothing
// pending, sequence numbers restarted — discarding whatever was still
// scheduled (a kernel can end with fire-and-forget traffic in flight, and a
// failed run with anything). Only capacity survives: the discarded event
// records join the free list and the overflow heap keeps its backing array.
func (q *Queue) Reset() {
	for _, e := range q.overflow {
		q.put(e)
	}
	clear(q.overflow)
	q.overflow = q.overflow[:0]
	if q.wheelN > 0 {
		for i := range q.wheel {
			b := &q.wheel[i]
			for b.head != nil {
				e := b.head
				b.head = e.next
				q.put(e)
			}
			b.tail = nil
		}
	}
	q.occupied = [wheelSize / 64]uint64{}
	q.now, q.seq, q.n, q.wheelN, q.nextDue = 0, 0, 0, 0, 0
}

// Drain runs events until the queue is empty, advancing time as needed.
// It is primarily useful in tests of event-driven components.
func (q *Queue) Drain() {
	for q.n > 0 {
		q.runAt(q.nextDue)
	}
}
