package engine

import (
	"math/rand"
	"testing"
)

// eventQueue is the surface both implementations share, so the differential
// tests can drive them through one code path.
type eventQueue interface {
	Now() Cycle
	Len() int
	ScheduleAt(when Cycle, h Handler, arg uint64)
	ScheduleAfter(delay Cycle, h Handler, arg uint64)
	RunUntil(cycle Cycle)
	NextEventTime() (Cycle, bool)
	Drain()
}

// driveRandom executes one randomized schedule against q and returns the
// delivery order as (id, firing-cycle) pairs. The schedule mixes near
// events, far events (beyond the wheel window), same-cycle ties, and
// zero-delay self-reschedules, interleaved with partial RunUntil
// advancement — everything the timing wheel treats specially.
func driveRandom(q eventQueue, seed int64) (ids []int, times []Cycle) {
	rng := rand.New(rand.NewSource(seed))
	next := 0
	var schedule func(depth int, delay Cycle)
	schedule = func(depth int, delay Cycle) {
		id := next
		next++
		q.ScheduleAfter(delay, FuncHandler(func() {
			ids = append(ids, id)
			times = append(times, q.Now())
			if depth > 0 {
				// Self-reschedule, sometimes with zero delay (same cycle,
				// delivered later in FIFO order) and sometimes far enough to
				// hit the overflow heap.
				switch rng.Intn(4) {
				case 0:
					schedule(depth-1, 0)
				case 1:
					schedule(depth-1, Cycle(rng.Intn(wheelSize-1)))
				case 2:
					schedule(depth-1, Cycle(wheelSize+rng.Intn(4*wheelSize)))
				default:
					schedule(depth-1, Cycle(rng.Intn(8)))
				}
			}
		}), 0)
	}
	for i := 0; i < 200; i++ {
		switch rng.Intn(6) {
		case 0: // burst of same-cycle ties
			d := Cycle(rng.Intn(2 * wheelSize))
			for j := 0; j < 1+rng.Intn(5); j++ {
				schedule(rng.Intn(3), d)
			}
		case 1: // far event, overflow territory
			schedule(rng.Intn(3), Cycle(wheelSize+rng.Intn(8*wheelSize)))
		case 2: // partial advancement
			q.RunUntil(q.Now() + Cycle(rng.Intn(3*wheelSize)))
		default:
			schedule(rng.Intn(4), Cycle(rng.Intn(wheelSize)))
		}
	}
	q.Drain()
	return ids, times
}

// TestQueueDifferential drives the timing wheel and the original binary
// heap (heapq_test.go) with identical randomized schedules and asserts
// identical delivery order, including same-cycle ties, zero-delay
// self-reschedules, overflow traffic, and Drain.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		var wheel Queue
		var ref heapQueue
		gotIDs, gotTimes := driveRandom(&wheel, seed)
		wantIDs, wantTimes := driveRandom(&ref, seed)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("seed %d: delivered %d events, heap delivered %d", seed, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotTimes[i] != wantTimes[i] {
				t.Fatalf("seed %d: delivery %d = (id %d, t %d), heap = (id %d, t %d)",
					seed, i, gotIDs[i], gotTimes[i], wantIDs[i], wantTimes[i])
			}
		}
		if wheel.Len() != 0 || ref.Len() != 0 {
			t.Fatalf("seed %d: queues not empty after Drain: wheel %d, heap %d", seed, wheel.Len(), ref.Len())
		}
	}
}

// TestQueueDifferentialNextEventTime cross-checks NextEventTime while
// events sit in both the wheel and the overflow heap.
func TestQueueDifferentialNextEventTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var wheel Queue
	var ref heapQueue
	for i := 0; i < 500; i++ {
		if rng.Intn(3) == 0 {
			c := Cycle(rng.Intn(4 * wheelSize))
			wheel.RunUntil(wheel.Now() + c)
			ref.RunUntil(ref.Now() + c)
		} else {
			d := Cycle(rng.Intn(6 * wheelSize))
			wheel.ScheduleAfter(d, FuncHandler(func() {}), 0)
			ref.ScheduleAfter(d, FuncHandler(func() {}), 0)
		}
		gw, okw := wheel.NextEventTime()
		gh, okh := ref.NextEventTime()
		if gw != gh || okw != okh {
			t.Fatalf("step %d: NextEventTime = %d,%v; heap = %d,%v", i, gw, okw, gh, okh)
		}
	}
}

// steadyHandler models one simulated component in steady state: each
// delivery reschedules itself with the next latency from a fixed pattern
// (L1 hit, crossbar, L2 lookup, DRAM, zero-delay completion).
type steadyHandler struct {
	q     *Queue
	count *int
	limit int
	step  int
}

var steadyDelays = [...]Cycle{3, 0, 6, 30, 2, 100, 1, 300}

func (h *steadyHandler) HandleEvent(arg uint64) {
	*h.count++
	if *h.count >= h.limit {
		return
	}
	h.step++
	h.q.ScheduleAfter(steadyDelays[h.step%len(steadyDelays)], h, arg)
}

// TestQueueSteadyStateAllocFree is the allocation-budget regression test on
// the engine itself: after warm-up, the schedule/deliver cycle through
// pre-bound handlers must not allocate at all, so future PRs cannot
// silently reintroduce per-event allocations.
func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue
	count := 0
	handlers := make([]steadyHandler, 16)
	warm := func(limit int) {
		for i := range handlers {
			handlers[i] = steadyHandler{q: &q, count: &count, limit: limit, step: i}
			q.ScheduleAfter(steadyDelays[i%len(steadyDelays)], &handlers[i], uint64(i))
		}
		q.Drain()
	}
	warm(1 << 12) // populate the event pool and overflow capacity
	allocs := testing.AllocsPerRun(10, func() {
		count = 0
		warm(1 << 10)
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/deliver allocated %.1f allocs/run, want 0", allocs)
	}
}

// TestQueueScheduleDeliverAllocBound bounds FuncHandler callers too: the
// event record comes from the pool and the adapter itself costs nothing, so
// the only allocation is the caller's own closure (if it captures).
func TestQueueScheduleDeliverAllocBound(t *testing.T) {
	var q Queue
	for i := 0; i < 1024; i++ { // warm the pool
		q.ScheduleAfter(Cycle(i%200), FuncHandler(func() {}), 0)
	}
	q.Drain()
	allocs := testing.AllocsPerRun(100, func() {
		q.ScheduleAfter(3, FuncHandler(func() {}), 0)
		q.RunUntil(q.Now() + 4)
	})
	if allocs > 0 {
		t.Fatalf("capture-free closure schedule/deliver allocated %.1f allocs/run, want 0", allocs)
	}
}

// BenchmarkEngineSteadyState measures the steady-state event cost of the
// timing wheel driven through pre-bound handlers; ns/op and allocs/op are per
// delivered event. TestQueueSteadyStateAllocFree holds the same path at zero
// allocations.
func BenchmarkEngineSteadyState(b *testing.B) {
	var q Queue
	count := 0
	handlers := make([]steadyHandler, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range handlers {
		handlers[i] = steadyHandler{q: &q, count: &count, limit: b.N, step: i}
		q.ScheduleAfter(steadyDelays[i%len(steadyDelays)], &handlers[i], uint64(i))
	}
	for count < b.N {
		q.Drain()
	}
}

// TestQueueResetEqualsFresh abandons a queue mid-run — events parked in
// wheel buckets and in the overflow heap, time and sequence advanced — and
// checks that after Reset it is indistinguishable from a zero-value queue:
// same observable state, same delivery order for a fresh random schedule,
// and the abandoned events never fire.
func TestQueueResetEqualsFresh(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		var q Queue
		stale := 0
		for i := 0; i < 300; i++ {
			q.ScheduleAfter(Cycle(i*7%(5*wheelSize)), FuncHandler(func() { stale++ }), 0)
		}
		q.RunUntil(Cycle(wheelSize / 2))
		fired := stale
		if q.Len() == 0 || len(q.overflow) == 0 || q.wheelN == 0 {
			t.Fatal("test set-up left nothing pending in wheel and overflow")
		}
		q.Reset()
		if _, ok := q.NextEventTime(); q.Now() != 0 || q.Len() != 0 || ok {
			t.Fatalf("seed %d: after Reset Now=%d Len=%d next=%v", seed, q.Now(), q.Len(), ok)
		}
		var fresh Queue
		gotIDs, gotTimes := driveRandom(&q, seed)
		wantIDs, wantTimes := driveRandom(&fresh, seed)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("seed %d: delivered %d events, fresh queue %d", seed, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotTimes[i] != wantTimes[i] {
				t.Fatalf("seed %d: delivery %d differs from a fresh queue", seed, i)
			}
		}
		if stale != fired {
			t.Fatalf("seed %d: %d abandoned events fired after Reset", seed, stale-fired)
		}
		if q.seq != fresh.seq || q.nextDue != fresh.nextDue || q.occupied != fresh.occupied {
			t.Fatalf("seed %d: internal state diverged from a fresh queue", seed)
		}
	}
}
