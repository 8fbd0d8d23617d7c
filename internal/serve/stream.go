package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Live trace streaming. Every GET /v1/jobs/{id}/stream of a traced job is a
// traced run of the job's point made for that subscriber alone: the request
// is admitted through the job pool like a submission (429 while the backlog
// is full, 503 once the server closes), registered nowhere, and a pool worker
// runs it. A publish observer on the run's machine renders, every s.every
// simulated cycles, the events and samples recorded since its last call,
// with obs's AppendJSON, and writes them straight to the subscriber's
// connection; the trace is then emptied, so a run holds one publish period
// of its trace and one period of wire bytes, however long it is. The
// stream ends with a done frame carrying the point's result document, or an
// error frame. The handler goroutine only waits for the run to end, because
// the ResponseWriter is valid only until the handler returns:
//
//   - Simulation is deterministic, so every subscriber of a point receives
//     the same bytes, whenever it attaches, and they equal an offline
//     dwstrace run of the point rendered the same way
//     (TestStreamMatchesOfflineTrace).
//   - Each write, header included, has a deadline Server.writeTimeout from
//     its start. A write that fails — the client hung up, or stopped reading and
//     the deadline passed — or a request that has ended makes the observer
//     call sim.(*System).Stop: the run returns an error at once, its machine
//     is dropped rather than recycled, nothing is cached or stored, and the
//     worker is free (TestStreamStopsOnSlowOrGoneSubscriber). A subscriber
//     that leaves while its run is still queued costs no simulation.
//   - A traced job's own run is the untraced Session.Run of every other
//     job; its result document, key and status do not depend on whether
//     anyone streams it.
//
// The trade: N subscribers cost N traced runs; a traced job that is also
// streamed simulates its point twice unless the point is already cached;
// and a client that stops reading holds a worker until its write deadline.

const doneHead = "event: done\ndata: "

// stream is one subscriber's connection, written by its run on a pool
// worker while the handler goroutine waits on done.
type stream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	ctx     context.Context // the request's
	timeout time.Duration
	buf     []byte // the frames of one write
	started bool   // the response header has been written
	err     error  // the request ended or a write failed: nothing more is written
	done    chan struct{}
}

// write sends b and flushes it, the response header first on the first call,
// under a deadline of st.timeout from now. It writes nothing, and returns the
// cause, once the request has ended or an earlier write has failed.
func (st *stream) write(b []byte) error {
	if st.err == nil {
		st.err = st.ctx.Err()
	}
	if st.err != nil || (len(b) == 0 && st.started) {
		return st.err
	}
	if !st.started {
		st.w.Header().Set("Content-Type", "text/event-stream")
		st.w.Header().Set("Cache-Control", "no-store")
		st.w.WriteHeader(http.StatusOK)
		st.started = true
	}
	//dwslint:ignore a write deadline is host time by nature; no simulated result reads it
	st.rc.SetWriteDeadline(time.Now().Add(st.timeout)) //nolint:errcheck // a writer without deadlines (a test recorder) writes without one
	if _, st.err = st.w.Write(b); st.err == nil {
		st.err = st.rc.Flush()
	}
	return st.err
}

// publish writes the frames of what the run recorded since the last call and
// empties the trace, keeping its capacity. It runs on the simulation
// goroutine, the one that fills the trace, so consuming it is race-free.
// Events and samples interleave in cycle order, as an offline export walks
// them, ties events-first (a sample at cycle c summarizes the interval
// ending at c). Payloads are single-line JSON, so one data: line per frame
// suffices.
func (st *stream) publish(tr *obs.Trace) error {
	evs, sas := tr.Events, tr.Samples
	b := st.buf[:0]
	for len(evs) > 0 || len(sas) > 0 {
		if len(sas) == 0 || (len(evs) > 0 && evs[0].Cycle <= sas[0].Cycle) {
			b, evs = evs[0].AppendJSON(append(b, "event: obs\ndata: "...)), evs[1:]
		} else {
			b, sas = sas[0].AppendJSON(append(b, "event: sample\ndata: "...)), sas[1:]
		}
		b = append(b, "\n\n"...)
	}
	st.buf = b
	tr.Events, tr.Samples = tr.Events[:0], tr.Samples[:0]
	return st.write(b)
}

// end writes the terminal frame, a done frame carrying the one-line JSON
// payload, unless the stream has already failed.
func (st *stream) end(payload []byte) {
	st.buf = append(append(append(st.buf[:0], doneHead...), payload...), "\n\n"...)
	st.write(st.buf) //nolint:errcheck // the last write: there is nothing left to stop
}

// endError ends the stream with an error frame.
func (st *stream) endError(msg string) {
	st.end(mustJSON(map[string]string{"status": StatusFailed, "error": msg}))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal stream frame: %v", err))
	}
	return b
}

// runStream makes j's traced run for its subscriber, j.sub, on a pool
// worker: the header goes out when the run starts, each publish period's
// frames while it runs, and the done frame, with the point's result document
// compacted to one line, when it has ended. A panic under it ends the stream
// with an error frame, and the run's machine is not recycled.
func (s *Server) runStream(j *job) {
	st := j.sub
	defer close(st.done)
	defer func() {
		if r := recover(); r != nil {
			st.endError(panicMessage(r))
		}
	}()
	if st.write(nil) != nil {
		return // the subscriber left while the run was queued
	}
	p := &j.points[0]
	every := j.req.TraceEvery
	if every == 0 {
		every = 1000 // the dwsim -obsevery default
	}
	tr := obs.New(every)
	s.live.SetMeta(p.bench, string(p.knobs.Scheme))
	r, err := s.session.RunTracedWith(p.bench, p.knobs, tr, func(sys *sim.System) func() {
		sys.Observe(s.every, func(uint64) {
			if st.publish(tr) != nil {
				sys.Stop()
			}
		})
		return s.session.OnSystem(sys)
	})
	if err != nil {
		st.endError(err.Error())
		return
	}
	if st.publish(tr) != nil { // the tail after the last period
		return
	}
	var doc bytes.Buffer
	if err := json.Compact(&doc, RenderResultDoc(r, p.knobs)); err != nil {
		panic(fmt.Sprintf("serve: compact result doc: %v", err))
	}
	st.end(doc.Bytes())
}
