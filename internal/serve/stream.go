package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Live trace streaming. A traced job gets a streamHub: the simulation
// goroutine publishes into it from inside a System observer, and any
// number of SSE clients read it from the start. The hub's log holds
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
//   - Because every subscriber reads from offset zero, of the log or of a
//     replay's, a late subscriber receives the identical bytes an early
//     one does, which is what makes the SSE stream comparable
//     byte-for-byte with an offline dwstrace run of the same point
//     (TestStreamMatchesOfflineTrace). The renderer is obs's AppendJSON,
//     the records round-trip every field (TestStreamRecordRoundTrip), so
//     the wire bytes are those of a log that held the text.
//
// The price of the small log is that N subscribers render N times. In
// exchange the JSON is rendered on the subscriber's goroutine, not the
// simulation's.
//
// A log holds only what its subscribers have yet to read. While the job
// runs it keeps every record until the first subscriber attaches; from
// then on every publish, read and detach drops the chunks before the
// slowest attached reader's (while the job runs the last chunk stays, for
// the records still to come), so a job's memory is bounded by how far its
// slowest subscriber lags, not by the length of its run. A finished log
// with no subscriber attached keeps only its done frame, which carries the
// whole result document, whether or not anyone ever read it. A subscriber
// that finds the start of the log gone — it attached after a trim, or
// after the job finished — gets a replay: the point is re-run, traced,
// into a hub of its own through the job pool. Simulation is deterministic,
// so the replay's bytes are the ones the log held. The trade: a second
// viewer of a running job whose first chunk is gone does not join the
// live tail; its replay waits for a worker like any submission.

const (
	// logChunk is the size of one log chunk, and the most wire bytes a
	// subscriber hands the connection per Write. A chunk holds whole
	// records, so a log wastes less than a record at the end of each chunk
	// and at most this much in its last.
	logChunk = 64 << 10
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
	mu      sync.Mutex
	chunks  [][]byte      // the records from offset starts[0] on, each whole in one chunk
	starts  []int         // the log offset of each chunk's first byte
	size    int           // record bytes published: the log's end offset
	done    []byte        // the terminal frame; non-nil once the log is complete
	readers []*reader     // the subscribers attached
	opened  bool          // a subscriber has attached, so trimming has begun
	notify  chan struct{} // closed and replaced on every publish
}

func newStreamHub() *streamHub {
	return &streamHub{notify: make(chan struct{})}
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

// trim drops the chunks no subscriber can still read; h.mu is held. A
// finished log with no subscriber keeps only its done frame. Otherwise,
// until the first subscriber attaches that is none, and after that it is
// every chunk before the one holding the slowest attached reader's offset,
// the end of the log standing in for a reader, so a running job keeps its
// last chunk for the records still to come.
func (h *streamHub) trim() {
	if h.done != nil && len(h.readers) == 0 {
		h.chunks, h.starts = nil, nil
		return
	}
	if !h.opened {
		return
	}
	lo := h.size
	for _, r := range h.readers {
		lo = min(lo, r.pin)
	}
	if i := sort.SearchInts(h.starts, lo+1) - 1; i > 0 {
		h.chunks, h.starts = slices.Delete(h.chunks, 0, i), slices.Delete(h.starts, 0, i)
	}
}

// finish completes the log with a done frame carrying the one-line JSON
// payload. Only the first call has an effect: a job that panics after its
// done frame stays done.
func (h *streamHub) finish(payload []byte) {
	frame := make([]byte, 0, len(doneHead)+len(payload)+2)
	frame = append(append(append(frame, doneHead...), payload...), "\n\n"...)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done != nil {
		return
	}
	h.done = frame
	h.trim()
	h.wake()
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

// read returns the records at r's offset, up to the end of the chunk
// holding them, and, while the job runs, the channel the next publish
// closes. Past the records of a complete log it returns the done frame.
// The offset pins its chunk until the next read.
func (h *streamHub) read(r *reader) (recs, done []byte, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r.pin = r.off
	h.trim()
	if h.done == nil {
		wait = h.notify
	}
	switch {
	case r.off < h.size:
		i := sort.SearchInts(h.starts, r.off+1) - 1
		return h.chunks[i][r.off-h.starts[i]:], nil, wait
	case wait == nil:
		return nil, h.done, nil
	}
	return nil, nil, wait
}

// held is what the log holds right now, its chunks' records plus the done
// frame, and whether it has been cut back to the done frame. A log with
// records keeps at least one chunk until it is.
func (h *streamHub) held() (bytes int, compacted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bytes = len(h.done)
	for _, c := range h.chunks {
		bytes += len(c)
	}
	return bytes, h.size > 0 && len(h.chunks) == 0
}

// idle reports whether the log is complete and no subscriber is left to
// read it.
func (h *streamHub) idle() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done != nil && len(h.readers) == 0
}

// attach registers a subscriber at the start of the log and returns its
// reader, or nil when records at the start are gone and the subscriber
// needs a replay.
func (h *streamHub) attach() *reader {
	h.mu.Lock()
	defer h.mu.Unlock()
	base := h.size // the offset of the first record held
	if len(h.starts) > 0 {
		base = h.starts[0]
	}
	if base > 0 {
		return nil
	}
	r := &reader{h: h}
	h.readers = append(h.readers, r)
	h.opened = true
	return r
}

// detach unregisters r and releases what only it was reading.
func (h *streamHub) detach(r *reader) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.readers = slices.DeleteFunc(h.readers, func(x *reader) bool { return x == r })
	h.trim()
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
	h.trim()
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
	pin   int // off as of the last read, under h.mu: the hub keeps its chunk
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
	recs, done, wait := r.h.read(r)
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

// serveStream writes the log rd is attached to as Server-Sent Events until
// the log completes or the client goes away, and then detaches rd.
func serveStream(w http.ResponseWriter, r *http.Request, rd *reader) {
	defer rd.h.detach(rd)
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
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
