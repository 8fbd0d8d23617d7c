package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Live trace streaming. A traced job gets a streamHub: the simulation
// goroutine publishes into it from inside a System observer, and any
// number of SSE clients replay it from the start. The hub's log holds
// compact binary records, not wire text: one per event or sample, a tag
// byte and varints, the cycle a delta from the record before. That is about
// a tenth of the bytes the frames take on the wire ("event: obs\ndata:
// {...}\n\n" and so on), which every subscriber renders for itself as it
// reads. Records are appended into fixed-size chunks, whole: nothing is
// re-copied as the log grows, the job's obs.Trace holds one publish period,
// not the run, and a subscriber is a record offset, the cycle of the record
// before it and a buffer it renders into. There are no per-subscriber
// goroutines and no per-subscriber channels:
//
//   - The publisher encodes new events into the log under a mutex and
//     closes a broadcast channel; encoding is a few varints, with no JSON,
//     and it can never block on a slow client, so a stalled curl cannot
//     stall the machine.
//   - A subscriber is just the net/http handler goroutine reading the log
//     by offset, rendering at most logChunk bytes of frames per Write, and
//     waiting on the broadcast channel or its own request context — on
//     disconnect it simply returns, so there is nothing to leak
//     (TestStreamDisconnect pins the goroutine count). Its first Write is
//     at most firstWrite bytes, flushed at once, and while the job runs
//     the backlog behind it waits for the next publish: the client reads
//     its first frame while the subscriber is idle, not while it renders.
//   - Because the log is replayed from offset zero, a late subscriber
//     receives the identical bytes an early one does, which is what makes
//     the SSE stream comparable byte-for-byte with an offline dwstrace run
//     of the same point (TestStreamMatchesOfflineTrace). The renderer is
//     obs's AppendJSON, the records round-trip every field
//     (TestStreamRecordRoundTrip), so the wire bytes are those of a log
//     that held the text.
//
// The price of the small log is that N subscribers render N times, and a
// replay costs a render instead of a memcpy. In exchange the JSON is
// rendered on the subscriber's goroutine, not the simulation's.
//
// Retention is bounded. While a job runs its log grows by one record per
// event and sample, as an offline obs.Trace of the run does. Once the done
// frame (wire text, since it is rendered once) is published, the log's
// record bytes are charged to one budget shared by every job of the
// registry (streamLogs), and while the budget is exceeded the oldest
// finished log that no subscriber is attached to is compacted: its chunks
// are dropped and only the done frame — which carries the whole result
// document — stays. So a subscriber, live or mid-replay, is never cut
// short; a subscriber to a log still retained replays it in full; and a
// subscriber to a compacted log receives exactly the done frame.

const (
	// logChunk is the size of one log chunk, and the most wire bytes a
	// subscriber hands the connection per Write. A chunk holds whole
	// records, so a log wastes less than a record at the end of each chunk
	// and at most this much in its last.
	logChunk = 64 << 10
	// streamLogBudget bounds the record bytes finished logs may hold between
	// them. The done frames that outlive compaction are not counted: the
	// budget cannot reclaim them, they go with the job.
	streamLogBudget = 16 << 20
	// firstWrite bounds a subscriber's first Write, which is flushed at
	// once, so that the first frame reaches the client after a few frames'
	// rendering instead of a whole logChunk's. It is the size of net/http's
	// response buffer.
	firstWrite = 4 << 10

	doneHead = "event: done\ndata: "

	// The tag byte that starts each record. An event record follows it with
	// the cycle delta, kind, unit, warp, pc, mask, mask2 and addr; a sample
	// record with the cycle delta and the Sample fields in declaration
	// order. The cycle delta and the int fields are zigzag varints, the
	// rest uvarints.
	recEvent  = 'e'
	recSample = 's'
	// maxRecord bounds one record's bytes: the tag and a sample's twelve
	// varints.
	maxRecord = 1 + 12*binary.MaxVarintLen64
)

// streamHub is the per-job record log plus its broadcast signal.
type streamHub struct {
	logs *streamLogs

	mu     sync.Mutex
	chunks [][]byte      // event and sample records, each whole in one chunk
	starts []int         // the log offset of each chunk's first byte
	size   int           // record bytes in chunks
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

// appendRecord adds one encoded record to the log, in a new chunk when the
// last one cannot hold it whole; h.mu is held.
func (h *streamHub) appendRecord(rec []byte) {
	last := len(h.chunks) - 1
	if last < 0 || len(h.chunks[last])+len(rec) > logChunk {
		h.chunks = append(h.chunks, make([]byte, 0, logChunk))
		h.starts = append(h.starts, h.size)
		last++
	}
	h.chunks[last] = append(h.chunks[last], rec...)
	h.size += len(rec)
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

// read returns the records at offset off, up to the end of the chunk
// holding them, and, while the job runs, the channel the next publish
// closes. Past the records of a complete log it returns the done frame.
func (h *streamHub) read(off int) (recs, done []byte, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done == nil {
		wait = h.notify
	}
	switch {
	case off < h.size:
		i := sort.SearchInts(h.starts, off+1) - 1
		return h.chunks[i][off-h.starts[i]:], nil, wait
	case wait == nil:
		return nil, h.done, nil
	}
	return nil, nil, wait
}

// bytes is what the log holds right now: its records, plus the done frame.
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
	h.chunks, h.starts, h.size = nil, nil, 0
	return freed, true
}

// streamLogs is the registry-wide retention budget over finished logs.
// Lock order: streamLogs.mu, then a hub's mu; a hub never calls in here
// with its own mutex held.
type streamLogs struct {
	mu        sync.Mutex
	budget    int          // streamLogBudget; tests lower it
	held      int          // record bytes of the logs in full
	full      []*streamHub // finished and not compacted, oldest first
	compacted int
}

// retain charges a log that has just finished with size bytes of records.
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

// publisher incrementally encodes a trace into its hub's log and empties
// it. It runs entirely on the simulation goroutine (observer + final
// flush), and nothing else reads the trace (the sampler keeps its own
// snapshot), so consuming the still-filling obs.Trace is race-free.
type publisher struct {
	hub   *streamHub
	tr    *obs.Trace
	cycle uint64          // the last record's cycle, the base of the next delta
	rec   [maxRecord]byte // one record, encoded
}

// flush appends what the run recorded since the last flush to the log,
// under one lock, and truncates the trace, keeping its capacity. Events and
// samples interleave in cycle order, as an offline export walks them, ties
// events-first (a sample at cycle c summarizes the interval ending at c).
func (p *publisher) flush() {
	evs, sas := p.tr.Events, p.tr.Samples
	if len(evs) == 0 && len(sas) == 0 {
		return
	}
	h := p.hub
	h.mu.Lock()
	for len(evs) > 0 || len(sas) > 0 {
		if len(sas) == 0 || (len(evs) > 0 && evs[0].Cycle <= sas[0].Cycle) {
			h.appendRecord(appendEventRecord(p.rec[:0], evs[0], p.cycle))
			p.cycle, evs = evs[0].Cycle, evs[1:]
		} else {
			h.appendRecord(appendSampleRecord(p.rec[:0], sas[0], p.cycle))
			p.cycle, sas = sas[0].Cycle, sas[1:]
		}
	}
	h.wake()
	h.mu.Unlock()
	p.tr.Events, p.tr.Samples = p.tr.Events[:0], p.tr.Samples[:0]
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

// appendEventRecord appends e's record; prev is the cycle of the record
// before it.
func appendEventRecord(b []byte, e obs.Event, prev uint64) []byte {
	b = binary.AppendVarint(append(b, recEvent), int64(e.Cycle-prev))
	b = binary.AppendUvarint(b, uint64(e.Kind))
	b = binary.AppendVarint(b, int64(e.Unit))
	b = binary.AppendVarint(b, int64(e.Warp))
	b = binary.AppendVarint(b, int64(e.PC))
	b = binary.AppendUvarint(b, e.Mask)
	b = binary.AppendUvarint(b, e.Mask2)
	return binary.AppendUvarint(b, e.Addr)
}

// appendSampleRecord appends s's record; prev is the cycle of the record
// before it.
func appendSampleRecord(b []byte, s obs.Sample, prev uint64) []byte {
	b = binary.AppendVarint(append(b, recSample), int64(s.Cycle-prev))
	b = binary.AppendVarint(b, int64(s.WPU))
	b = binary.AppendUvarint(b, s.Busy)
	b = binary.AppendUvarint(b, s.StallMem)
	b = binary.AppendUvarint(b, s.StallOther)
	b = binary.AppendUvarint(b, s.Issued)
	b = binary.AppendUvarint(b, s.WidthAccum)
	b = binary.AppendVarint(b, int64(s.WSTOcc))
	b = binary.AppendVarint(b, int64(s.Resident))
	b = binary.AppendVarint(b, int64(s.SlotWaiters))
	b = binary.AppendVarint(b, int64(s.L1MSHR))
	return binary.AppendVarint(b, int64(s.L2MSHR))
}

// reader is one subscriber's place in a log: the offset of the next
// record, the cycle of the record before it (the base of that record's
// delta) and the buffer its frames render into.
type reader struct {
	h     *streamHub
	off   int
	cycle uint64
	buf   []byte
	ended bool // the done frame has been returned
}

// next returns the wire bytes after the reader's place: the frames of whole
// records, at most limit bytes of them (but at least one frame), or the
// done frame. While the job runs, wait is the channel the next publish
// closes; b empty and wait nil mean the log is complete and read to its
// end. b is valid until the next call.
func (r *reader) next(limit int) (b []byte, wait <-chan struct{}) {
	if r.ended {
		return nil, nil
	}
	recs, done, wait := r.h.read(r.off)
	if len(recs) == 0 {
		r.ended = done != nil
		return done, wait
	}
	b = r.buf[:0]
	for len(recs) > 0 {
		mark, cycle := len(b), r.cycle
		var n int
		b, n = r.appendFrame(b, recs)
		if len(b) > limit && mark > 0 {
			b, r.cycle = b[:mark], cycle // that frame leads the next Write
			break
		}
		r.off += n
		recs = recs[n:]
	}
	r.buf = b
	return b, wait
}

// appendFrame renders the record at the head of recs as its wire frame,
// moves r.cycle to the record's cycle and returns the record's length.
// Payloads are single-line JSON, so one data: line per frame suffices.
func (r *reader) appendFrame(b, recs []byte) ([]byte, int) {
	v := varints(recs[1:])
	r.cycle += uint64(v.varint())
	switch recs[0] {
	case recEvent:
		e := obs.Event{Cycle: r.cycle, Kind: obs.EventKind(v.uvarint()), Unit: int(v.varint()), Warp: int(v.varint()),
			PC: int(v.varint()), Mask: v.uvarint(), Mask2: v.uvarint(), Addr: v.uvarint()}
		b = e.AppendJSON(append(b, "event: obs\ndata: "...))
	case recSample:
		s := obs.Sample{Cycle: r.cycle, WPU: int(v.varint()), Busy: v.uvarint(), StallMem: v.uvarint(),
			StallOther: v.uvarint(), Issued: v.uvarint(), WidthAccum: v.uvarint(), WSTOcc: int(v.varint()),
			Resident: int(v.varint()), SlotWaiters: int(v.varint()), L1MSHR: int(v.varint()), L2MSHR: int(v.varint())}
		b = s.AppendJSON(append(b, "event: sample\ndata: "...))
	default:
		panic(fmt.Sprintf("serve: stream record tag %#x", recs[0]))
	}
	return append(b, "\n\n"...), len(recs) - len(v)
}

// varints is the unread rest of one record.
type varints []byte

func (v *varints) uvarint() uint64 {
	x, n := binary.Uvarint(*v)
	*v = (*v)[n:]
	return x
}

func (v *varints) varint() int64 {
	x, n := binary.Varint(*v)
	*v = (*v)[n:]
	return x
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
	rd := reader{h: h}
	limit := firstWrite
	for {
		b, wait := rd.next(limit)
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return // client hung up mid-write
			}
			if limit == logChunk {
				continue
			}
			// The first frames go out at once, and while the job runs the
			// rest waits for the next publish: rendering it straight away
			// would take the CPU the client needs to read them.
			limit = logChunk
		}
		fl.Flush() // push what was written before waiting or leaving
		switch {
		case wait != nil:
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		case len(b) == 0:
			return // the log is complete and read to its end
		}
	}
}
