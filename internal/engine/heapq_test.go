package engine

import "container/heap"

// heapQueue is the original container/heap event queue, kept verbatim as
// the differential-test oracle for the timing wheel: TestQueueDifferential
// drives both implementations with identical randomized schedules and
// asserts identical delivery order.
type heapEvent struct {
	when Cycle
	seq  uint64
	h    Handler
	arg  uint64
}

type refHeap []*heapEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*heapEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type heapQueue struct {
	heap refHeap
	now  Cycle
	seq  uint64
}

func (q *heapQueue) Now() Cycle { return q.now }

func (q *heapQueue) Len() int { return len(q.heap) }

func (q *heapQueue) ScheduleAt(when Cycle, h Handler, arg uint64) {
	if when < q.now {
		panic("engine: event scheduled in the past")
	}
	q.seq++
	heap.Push(&q.heap, &heapEvent{when: when, seq: q.seq, h: h, arg: arg})
}

func (q *heapQueue) ScheduleAfter(delay Cycle, h Handler, arg uint64) {
	q.ScheduleAt(q.now+delay, h, arg)
}

func (q *heapQueue) RunUntil(cycle Cycle) {
	for len(q.heap) > 0 && q.heap[0].when <= cycle {
		e := heap.Pop(&q.heap).(*heapEvent)
		q.now = e.when
		e.h.HandleEvent(e.arg)
	}
	if cycle > q.now {
		q.now = cycle
	}
}

func (q *heapQueue) NextEventTime() (when Cycle, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].when, true
}

func (q *heapQueue) Drain() {
	for len(q.heap) > 0 {
		e := heap.Pop(&q.heap).(*heapEvent)
		q.now = e.when
		e.h.HandleEvent(e.arg)
	}
}
