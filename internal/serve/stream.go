package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// Live trace streaming. A traced job gets a streamHub: the simulation
// goroutine publishes into it from inside a System observer, and any
// number of SSE clients replay it from the start. The hub's
// log has one representation, the bytes that go on the wire
// ("event: obs\ndata: {...}\n\n" and so on), appended into fixed-size
// chunks: nothing is re-copied as the log grows, the job's obs.Trace holds
// one publish period, not the run, and a subscriber is a byte offset that
// hands whole chunk slices to its ResponseWriter. There are no
// per-subscriber goroutines and no per-subscriber channels:
//
//   - The publisher renders new events into a reused buffer, copies it
//     into the log under a mutex and closes a broadcast channel; it can
//     never block on a slow client, so a stalled curl cannot stall the
//     machine.
//   - A subscriber is just the net/http handler goroutine reading the log
//     by offset and waiting on the broadcast channel or its own request
//     context — on disconnect it simply returns, so there is nothing to
//     leak (TestStreamDisconnect pins the goroutine count).
//   - Because the log is replayed from offset zero, a late subscriber
//     receives the identical bytes an early one does, which is what makes
//     the SSE stream comparable byte-for-byte with an offline dwstrace run
//     of the same point (TestStreamMatchesOfflineTrace).
//
// Retention is bounded. While a job runs its log grows by one frame per
// event and sample, as an offline obs.Trace of the run does. Once the done
// frame is published the log's size is charged to one budget shared by
// every job of the registry (streamLogs), and while the budget is exceeded
// the oldest finished log that no subscriber is attached to is compacted:
// its chunks are dropped and only the done frame — which carries the whole
// result document — stays. So a subscriber, live or mid-replay, is never
// cut short; a subscriber to a log still retained replays it in full; and
// a subscriber to a compacted log receives exactly the done frame.

const (
	// logChunk is the size of one log chunk: a subscriber hands the
	// connection this much per Write, and a log wastes at most this much in
	// its last chunk.
	logChunk = 64 << 10
	// streamLogBudget bounds the chunk bytes finished logs may hold between
	// them. The done frames that outlive compaction are not counted: the
	// budget cannot reclaim them, they go with the job.
	streamLogBudget = 16 << 20

	doneHead = "event: done\ndata: "
)

// streamHub is the per-job wire-byte log plus its broadcast signal.
type streamHub struct {
	logs *streamLogs

	mu     sync.Mutex
	chunks [][]byte      // obs and sample frames; every chunk but the last is full
	size   int           // bytes in chunks
	done   []byte        // the terminal frame; non-nil once the log is complete
	subs   int           // subscribers attached
	notify chan struct{} // closed and replaced on every publish
}

func newStreamHub(logs *streamLogs) *streamHub {
	return &streamHub{logs: logs, notify: make(chan struct{})}
}

// wake signals every waiting subscriber; h.mu is held.
func (h *streamHub) wake() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// publish appends rendered frames to the log.
func (h *streamHub) publish(b []byte) {
	if len(b) == 0 {
		return
	}
	h.mu.Lock()
	h.size += len(b)
	for len(b) > 0 {
		last := len(h.chunks) - 1
		if last < 0 || len(h.chunks[last]) == logChunk {
			h.chunks = append(h.chunks, make([]byte, 0, logChunk))
			last++
		}
		c := h.chunks[last]
		n := copy(c[len(c):logChunk], b)
		h.chunks[last] = c[:len(c)+n]
		b = b[n:]
	}
	h.wake()
	h.mu.Unlock()
}

// finish completes the log with a done frame carrying the one-line JSON
// payload and charges its chunks to the retention budget. Only the first call
// has an effect: a job that panics after its done frame stays done.
func (h *streamHub) finish(payload []byte) {
	frame := make([]byte, 0, len(doneHead)+len(payload)+2)
	frame = append(append(append(frame, doneHead...), payload...), "\n\n"...)
	h.mu.Lock()
	if h.done != nil {
		h.mu.Unlock()
		return
	}
	h.done = frame
	size := h.size
	h.wake()
	h.mu.Unlock()
	h.logs.retain(h, size)
}

// finishError completes the log with a terminal error frame.
func (h *streamHub) finishError(msg string) {
	h.finish(mustJSON(map[string]string{"status": StatusFailed, "error": msg}))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal stream frame: %v", err))
	}
	return b
}

// read returns the log bytes at offset off, up to the end of the chunk (or
// done frame) holding them. When there are none yet, wait is the channel
// the next publish closes; b and wait both nil mean off is the end of a
// complete log.
func (h *streamHub) read(off int) (b []byte, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case off < h.size:
		return h.chunks[off/logChunk][off%logChunk:], nil
	case h.done == nil:
		return nil, h.notify
	case off < h.size+len(h.done):
		return h.done[off-h.size:], nil
	}
	return nil, nil
}

// bytes is the wire bytes the log holds right now.
func (h *streamHub) bytes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size + len(h.done)
}

// attach registers a subscriber: until it detaches the log cannot be
// compacted, so the offsets it reads at stay valid.
func (h *streamHub) attach() {
	h.mu.Lock()
	h.subs++
	h.mu.Unlock()
}

func (h *streamHub) detach() {
	h.mu.Lock()
	h.subs--
	idle := h.subs == 0 && h.done != nil
	h.mu.Unlock()
	if idle {
		h.logs.trim() // this log may be the one the budget was waiting for
	}
}

// compact drops everything but the done frame of a finished log, unless a
// subscriber is attached, and returns the bytes freed.
func (h *streamHub) compact() (freed int, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs > 0 {
		return 0, false
	}
	freed = h.size
	h.chunks, h.size = nil, 0
	return freed, true
}

// streamLogs is the registry-wide retention budget over finished logs.
// Lock order: streamLogs.mu, then a hub's mu; a hub never calls in here
// with its own mutex held.
type streamLogs struct {
	mu        sync.Mutex
	budget    int          // streamLogBudget; tests lower it
	held      int          // chunk bytes of the logs in full
	full      []*streamHub // finished and not compacted, oldest first
	compacted int
}

// retain charges a log that has just finished with size bytes of chunks.
func (l *streamLogs) retain(h *streamHub, size int) {
	if size == 0 { // a failed job's log is its done frame alone
		return
	}
	l.mu.Lock()
	l.held += size
	l.full = append(l.full, h)
	l.trimLocked()
	l.mu.Unlock()
}

// trim compacts logs, oldest first, while the budget is exceeded.
func (l *streamLogs) trim() {
	l.mu.Lock()
	l.trimLocked()
	l.mu.Unlock()
}

func (l *streamLogs) trimLocked() {
	keep := l.full[:0]
	for _, h := range l.full {
		if l.held > l.budget {
			if freed, ok := h.compact(); ok {
				l.held -= freed
				l.compacted++
				continue
			}
		}
		keep = append(keep, h)
	}
	clear(l.full[len(keep):])
	l.full = keep
}

// publisher incrementally renders a trace into its hub's log and empties
// it. It runs entirely on the simulation goroutine (observer + final
// flush), and nothing else reads the trace (the sampler keeps its own
// snapshot), so consuming the still-filling obs.Trace is race-free.
type publisher struct {
	hub *streamHub
	tr  *obs.Trace
	buf []byte // the frames of one flush, reused
}

// flush renders what the run appended since the last flush and truncates
// the trace, keeping its capacity. Events and samples interleave in cycle
// order, as an offline export walks them, ties events-first (a sample at
// cycle c summarizes the interval ending at c). Payloads are single-line
// JSON, so one data: line per frame suffices.
func (p *publisher) flush() {
	b := p.buf[:0]
	evs, sas := p.tr.Events, p.tr.Samples
	for len(evs) > 0 || len(sas) > 0 {
		if len(sas) == 0 || (len(evs) > 0 && evs[0].Cycle <= sas[0].Cycle) {
			b = evs[0].AppendJSON(append(b, "event: obs\ndata: "...))
			evs = evs[1:]
		} else {
			b = sas[0].AppendJSON(append(b, "event: sample\ndata: "...))
			sas = sas[1:]
		}
		b = append(b, "\n\n"...)
	}
	p.tr.Events, p.tr.Samples = p.tr.Events[:0], p.tr.Samples[:0]
	p.buf = b
	p.hub.publish(b)
}

// finishSuccess publishes the trace tail and the terminal done frame
// carrying the canonical result document. The document renders indented
// for /v1/results; SSE payloads must be one line, so it is compacted here.
func (p *publisher) finishSuccess(doc []byte) {
	p.flush()
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		panic(fmt.Sprintf("serve: compact result doc: %v", err))
	}
	p.hub.finish(buf.Bytes())
}

// serveStream writes the job's log as Server-Sent Events until the log
// completes or the client goes away.
func serveStream(w http.ResponseWriter, r *http.Request, h *streamHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	h.attach()
	defer h.detach()
	off := 0
	for {
		b, wait := h.read(off)
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return // client hung up mid-write
			}
			off += len(b)
			continue
		}
		fl.Flush() // caught up: push what was written before waiting or leaving
		if wait == nil {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
