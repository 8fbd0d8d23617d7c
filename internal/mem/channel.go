package mem

import "repro/internal/engine"

// Channel models a shared transfer resource (the L1↔L2 crossbar, the memory
// bus) with a fixed per-message latency and a serial occupancy per message.
// Messages queue FIFO when the channel is busy, so burst traffic sees
// realistic queuing delay on top of the base latency.
type Channel struct {
	q *engine.Queue
	// Latency is the pipelined transfer latency charged to every message.
	Latency engine.Cycle
	// Occupancy is how long each message holds the channel; it bounds
	// throughput to one message per Occupancy cycles.
	Occupancy engine.Cycle

	busyUntil engine.Cycle
	transfers uint64
}

// NewChannel returns a channel bound to the event queue.
func NewChannel(q *engine.Queue, latency, occupancy engine.Cycle) *Channel {
	c := &Channel{q: q}
	c.reset(latency, occupancy)
	return c
}

// reset returns the channel to idle with the given timing.
func (c *Channel) reset(latency, occupancy engine.Cycle) {
	if occupancy == 0 {
		occupancy = 1
	}
	c.Latency, c.Occupancy = latency, occupancy
	c.busyUntil, c.transfers = 0, 0
}

// depart reserves the channel for one message and returns its arrival time
// (queuing delay plus latency).
func (c *Channel) depart() engine.Cycle {
	start := c.q.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	c.busyUntil = start + c.Occupancy
	c.transfers++
	return start + c.Latency
}

// SendEvent delivers h.HandleEvent(arg) after the channel's queuing delay
// plus latency.
func (c *Channel) SendEvent(h engine.Handler, arg uint64) {
	c.q.ScheduleAt(c.depart(), h, arg)
}

// Occupy sends a message nobody waits for (a dirty line on its way out): it
// holds the channel for its occupancy and schedules nothing. Its arrival
// would change no state, and no WPU waits for it, so an event there would
// only make the driver visit a cycle in which every WPU sleeps — which is
// the same as jumping it.
func (c *Channel) Occupy() { c.depart() }

// Transfers reports how many messages have crossed the channel.
func (c *Channel) Transfers() uint64 { return c.transfers }
