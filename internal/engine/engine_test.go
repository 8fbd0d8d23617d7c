package engine

import (
	"testing"
	"testing/quick"
)

func TestQueueZeroValue(t *testing.T) {
	var q Queue
	if q.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", q.Now())
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var q Queue
	var got []Cycle
	for _, c := range []Cycle{30, 10, 20, 5, 25} {
		c := c
		q.ScheduleAt(c, FuncHandler(func() { got = append(got, c) }), 0)
	}
	q.Drain()
	want := []Cycle{5, 10, 20, 25, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.ScheduleAt(7, FuncHandler(func() { got = append(got, i) }), 0)
	}
	q.Drain()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle order %v, want FIFO", got)
		}
	}
}

func TestRunUntilDeliversOnlyDueEvents(t *testing.T) {
	var q Queue
	fired := map[Cycle]bool{}
	for _, c := range []Cycle{1, 5, 10, 15} {
		c := c
		q.ScheduleAt(c, FuncHandler(func() { fired[c] = true }), 0)
	}
	q.RunUntil(10)
	if !fired[1] || !fired[5] || !fired[10] {
		t.Fatalf("events <= 10 not all fired: %v", fired)
	}
	if fired[15] {
		t.Fatal("event at 15 fired early")
	}
	if q.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", q.Now())
	}
	q.RunUntil(20)
	if !fired[15] {
		t.Fatal("event at 15 never fired")
	}
}

func TestRunUntilAdvancesTimeWithNoEvents(t *testing.T) {
	var q Queue
	q.RunUntil(42)
	if q.Now() != 42 {
		t.Fatalf("Now() = %d, want 42", q.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var q Queue
	q.RunUntil(100)
	var at Cycle
	q.ScheduleAfter(5, FuncHandler(func() { at = q.Now() }), 0)
	q.Drain()
	if at != 105 {
		t.Fatalf("After(5) fired at %d, want 105", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.ScheduleAt(5, FuncHandler(func() {}), 0)
}

func TestEventsCanScheduleEvents(t *testing.T) {
	var q Queue
	var chain []Cycle
	var step func()
	step = func() {
		chain = append(chain, q.Now())
		if len(chain) < 5 {
			q.ScheduleAfter(3, FuncHandler(step), 0)
		}
	}
	q.ScheduleAt(0, FuncHandler(step), 0)
	q.Drain()
	want := []Cycle{0, 3, 6, 9, 12}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain %v, want %v", chain, want)
		}
	}
}

func TestNextEventTime(t *testing.T) {
	var q Queue
	if _, ok := q.NextEventTime(); ok {
		t.Fatal("empty queue reported a next event")
	}
	q.ScheduleAt(9, FuncHandler(func() {}), 0)
	q.ScheduleAt(3, FuncHandler(func() {}), 0)
	if w, ok := q.NextEventTime(); !ok || w != 3 {
		t.Fatalf("NextEventTime = %d,%v; want 3,true", w, ok)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and Now never exceeds the last fired event's time during Drain.
func TestPropertyMonotonicDelivery(t *testing.T) {
	f := func(delays []uint16) bool {
		var q Queue
		var times []Cycle
		for _, d := range delays {
			d := Cycle(d)
			q.ScheduleAt(d, FuncHandler(func() { times = append(times, q.Now()) }), 0)
		}
		q.Drain()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
