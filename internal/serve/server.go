package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// Config assembles a Server.
type Config struct {
	// Session executes and deduplicates runs; required. The server takes
	// over its OnSystem hook (for the live /metrics snapshot).
	Session *report.Session
	// Store is the session's on-disk store, if any; the server only reads
	// its Stats for /metrics.
	Store *report.Store
}

// Server is the simulation-as-a-service daemon: job submission, job
// lifecycle, result fetch, live trace streaming, and Prometheus metrics,
// all on one http.Handler. Construct with New, start the workers with
// Start, and Close to drain. It runs Session.Jobs() jobs at a time.
type Server struct {
	session *report.Session
	store   *report.Store
	reg     *registry
	pool    *pool
	live    sim.Live
	every   uint64 // SSE publish cadence of a stream subscriber's run in simulated cycles
	// writeTimeout is the deadline of one write to a stream subscriber: the
	// header, one publish period's frames or the terminal frame.
	writeTimeout time.Duration
	mux          *http.ServeMux
}

// New assembles a Server (not yet executing jobs; call Start).
func New(cfg Config) *Server {
	s := &Server{
		session: cfg.Session,
		store:   cfg.Store,
		reg:     newRegistry(),
		every:   2048,
		// A client that stops reading holds a pool worker this long.
		writeTimeout: 10 * time.Second,
		mux:          http.NewServeMux(),
	}
	// Every run publishes the live snapshot under its own labels; a stream
	// subscriber's run also publishes its frames (runStream).
	s.session.OnSystem = func(j report.Job, sys *sim.System) func() {
		return s.live.Attach(sys, j.Bench, string(j.Knobs.Scheme))
	}

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"schema_version\":%d}\n", WireSchemaVersion)
	})
	return s
}

// Start launches the worker pool. Separate from New so tests can submit
// against a cold registry.
func (s *Server) Start() { s.pool = startPool(s.session.Jobs(), s.runJob) }

// Close drains the job feed and waits for in-flight simulations; a
// submission from then on is answered 503.
func (s *Server) Close() {
	if s.pool != nil {
		s.pool.close()
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON renders one response document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: the peer may hang up
}

// writeError maps a *serve.Error onto the wire.
func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.Status, map[string]string{"error": e.Msg})
}

// handleSubmit is POST /v1/jobs: decode, validate, then register and
// enqueue in one step. A full backlog is 429 with Retry-After and a
// shutting-down server 503; neither registers the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxJobBody)
	req, derr := DecodeJobRequest(body)
	if derr != nil {
		writeError(w, derr)
		return
	}
	io.Copy(io.Discard, body) //nolint:errcheck // drain for keep-alive
	add := func() *job { return s.reg.add(req) }
	if s.pool == nil { // before Start the job just sits queued
		writeJSON(w, http.StatusAccepted, s.reg.doc(add()))
		return
	}
	j, err := s.pool.submit(add)
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.reg.doc(j))
}

// refuse answers a submission the pool turned away: 429 with Retry-After
// when the backlog is full, 503 after Close.
func refuse(w http.ResponseWriter, err error) {
	if err == errBacklogFull {
		w.Header().Set("Retry-After", "1")
		writeError(w, &Error{Status: http.StatusTooManyRequests, Msg: err.Error()})
		return
	}
	writeError(w, &Error{Status: http.StatusServiceUnavailable, Msg: err.Error()})
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, s.reg.doc(j))
}

// handleStream is GET /v1/jobs/{id}/stream: a traced job's obs events and
// timeline samples as SSE, from a traced run of the job's point made for
// this subscriber alone and admitted like a submission (see stream.go). The
// run writes the response; the handler returns once it has ended.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "unknown job " + r.PathValue("id")})
		return
	}
	if !j.req.Trace {
		writeError(w, &Error{Status: http.StatusConflict,
			Msg: "job " + j.id + " was not submitted with \"trace\": true"})
		return
	}
	st := &stream{w: w, rc: http.NewResponseController(w), ctx: r.Context(), timeout: s.writeTimeout, done: make(chan struct{})}
	// j.point.status may be changing; the rest is fixed.
	sj := &job{req: j.req, point: point{bench: j.point.bench, knobs: j.point.knobs}, sub: st}
	if _, err := s.pool.submit(func() *job { return sj }); err != nil {
		refuse(w, err)
		return
	}
	<-st.done
}

// handleResult is GET /v1/results/{key}: the canonical RunDoc bytes for a
// completed point; 404 with a pending marker while a job still owes it.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	doc, ok, pending := s.reg.result(key)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc) //nolint:errcheck // best-effort: the peer may hang up
		return
	}
	if pending {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "result not ready", "status": "pending"})
		return
	}
	writeError(w, &Error{Status: http.StatusNotFound, Msg: "unknown result key " + key})
}

// handleMetrics is GET /metrics: daemon counters (jobs, session cache,
// store) followed by the live snapshot of the run that refreshed last,
// labelled with that run's benchmark and scheme.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counts := s.reg.counts()
	fmt.Fprintf(w, "# HELP dwsimd_jobs Jobs by lifecycle state.\n# TYPE dwsimd_jobs gauge\n")
	for _, st := range []string{StatusQueued, StatusRunning, StatusDone, StatusFailed} {
		fmt.Fprintf(w, "dwsimd_jobs{state=%q} %d\n", st, counts[st])
	}
	cs := s.session.Stats()
	fmt.Fprintf(w, "# HELP dwsimd_session_requests_total Session.Run requests by how they were satisfied.\n# TYPE dwsimd_session_requests_total counter\n")
	fmt.Fprintf(w, "dwsimd_session_requests_total{source=\"mem\"} %d\n", cs.MemHits)
	fmt.Fprintf(w, "dwsimd_session_requests_total{source=\"disk\"} %d\n", cs.DiskHits)
	fmt.Fprintf(w, "dwsimd_session_requests_total{source=\"simulated\"} %d\n", cs.Misses)
	if s.store != nil {
		ss := s.store.Stats()
		fmt.Fprintf(w, "# HELP dwsimd_store_ops_total Result-store operations.\n# TYPE dwsimd_store_ops_total counter\n")
		fmt.Fprintf(w, "dwsimd_store_ops_total{op=\"hit\"} %d\n", ss.Hits)
		fmt.Fprintf(w, "dwsimd_store_ops_total{op=\"miss\"} %d\n", ss.Misses)
		fmt.Fprintf(w, "dwsimd_store_ops_total{op=\"save\"} %d\n", ss.Saves)
		fmt.Fprintf(w, "dwsimd_store_ops_total{op=\"save_error\"} %d\n", ss.SaveErrors)
		fmt.Fprintf(w, "dwsimd_store_ops_total{op=\"corrupt\"} %d\n", ss.Corrupt)
		fmt.Fprintf(w, "# HELP dwsimd_store_evictions_total Records evicted by the LRU byte cap.\n# TYPE dwsimd_store_evictions_total counter\n")
		fmt.Fprintf(w, "dwsimd_store_evictions_total %d\n", ss.Evictions)
		fmt.Fprintf(w, "# HELP dwsimd_store_evicted_bytes_total Bytes reclaimed by eviction.\n# TYPE dwsimd_store_evicted_bytes_total counter\n")
		fmt.Fprintf(w, "dwsimd_store_evicted_bytes_total %d\n", ss.EvictedBytes)
		fmt.Fprintf(w, "# HELP dwsimd_store_bytes_in_use On-disk footprint of the store.\n# TYPE dwsimd_store_bytes_in_use gauge\n")
		fmt.Fprintf(w, "dwsimd_store_bytes_in_use %d\n", ss.BytesInUse)
		fmt.Fprintf(w, "# HELP dwsimd_store_records Records in the store's index.\n# TYPE dwsimd_store_records gauge\n")
		fmt.Fprintf(w, "dwsimd_store_records %d\n", ss.Records)
	}
	s.live.WriteMetrics(w)
}

// runJob executes one job on a pool worker: a stream subscriber's traced
// run (runStream) or a submitted job's one Session.Run. A panic under a
// submitted job (a simulator self-check, say) fails the job instead of the
// daemon: Session.Run drops the point it was computing, so a resubmission
// runs afresh, and the machine never reaches report's free list, because
// runLive gives back only machines whose run returned.
func (s *Server) runJob(j *job) {
	if j.sub != nil {
		s.runStream(j)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.reg.finish(j, nil, panicMessage(r))
		}
	}()
	s.reg.setRunning(j)
	p := &j.point
	r, err := s.session.Run(p.bench, p.knobs)
	if err != nil {
		s.reg.finish(j, nil, err.Error())
		return
	}
	s.reg.finish(j, RenderResultDoc(r, p.knobs), "")
}

// panicMessage is the first line of a recovered panic's message.
func panicMessage(r any) string {
	msg, _, _ := strings.Cut(fmt.Sprintf("panic: %v", r), "\n")
	return msg
}
