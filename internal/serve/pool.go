package serve

import (
	"errors"
	"sync"
)

// pool is the daemon's bounded job executor: n long-lived workers
// draining one submission-ordered feed. It is the only place in this
// package that launches goroutines (dwslint's goroutine check approves
// exactly this file alongside the report.Session worker pool) — HTTP
// handler concurrency belongs to net/http. A stream subscriber's traced run
// is a job of the pool like any other, and its handler goroutine waits for
// it (see stream.go).
//
// Every job is one simulation (a submitted point or a subscriber's traced
// run), so the n of startPool, the session's -j, bounds the daemon's
// simulations in flight.
//
// Admission goes by observed occupancy: a submission that finds the
// backlog full is refused, not queued behind it, so a handler never
// blocks on the feed and never sends on it once close has run.
type pool struct {
	mu     sync.Mutex // held by every send and by close
	closed bool
	feed   chan *job
	wg     sync.WaitGroup
}

// backlog bounds the daemon's accepted-but-unstarted jobs.
const backlog = 64

var (
	errBacklogFull = errors.New("job backlog full")
	errPoolClosed  = errors.New("server shutting down")
)

// startPool launches n workers applying run to each job in feed order.
func startPool(n int, run func(*job)) *pool {
	if n < 1 {
		n = 1
	}
	p := &pool{feed: make(chan *job, backlog)}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.feed {
				run(j)
			}
		}()
	}
	return p
}

// submit enqueues the job add registers, and calls add only if there is
// room: it answers errBacklogFull when the backlog is full and
// errPoolClosed after close, having registered nothing. The send cannot
// block, because every send happens under p.mu and workers only take from
// the feed.
func (p *pool) submit(add func() *job) (*job, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errPoolClosed
	}
	if len(p.feed) == cap(p.feed) {
		return nil, errBacklogFull
	}
	j := add()
	p.feed <- j
	return j, nil
}

// close refuses further submissions, lets the workers drain the jobs
// already accepted, and waits for them.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.feed)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
