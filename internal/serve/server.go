package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
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
	// Workers bounds concurrent jobs (0 = Session.Jobs()).
	Workers int
	// StreamEvery is the default SSE publish cadence in simulated cycles
	// for traced jobs (0 = 2048).
	StreamEvery uint64
}

// Server is the simulation-as-a-service daemon: job submission, job
// lifecycle, result fetch, live trace streaming, and Prometheus metrics,
// all on one http.Handler. Construct with New, start the workers with
// Start, and Close to drain.
type Server struct {
	session *report.Session
	store   *report.Store
	reg     *registry
	pool    *pool
	live    *sim.Live
	workers int
	every   uint64
	mux     *http.ServeMux
}

// New assembles a Server (not yet executing jobs; call Start).
func New(cfg Config) *Server {
	s := &Server{
		session: cfg.Session,
		store:   cfg.Store,
		reg:     newRegistry(),
		live:    sim.NewLive(0),
		workers: cfg.Workers,
		every:   cfg.StreamEvery,
		mux:     http.NewServeMux(),
	}
	if s.workers == 0 {
		s.workers = cfg.Session.Jobs()
	}
	if s.every == 0 {
		s.every = 2048
	}
	// Every run publishes into the shared live snapshot; a traced run's
	// machine also flushes its job's publisher (runTracedJob).
	s.session.OnSystem = s.live.Attach

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
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
func (s *Server) Start() { s.pool = startPool(s.workers, s.runJob) }

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
	switch err {
	case nil:
		writeJSON(w, http.StatusAccepted, s.reg.doc(j))
	case errBacklogFull:
		w.Header().Set("Retry-After", "1")
		writeError(w, &Error{Status: http.StatusTooManyRequests, Msg: err.Error()})
	default:
		writeError(w, &Error{Status: http.StatusServiceUnavailable, Msg: err.Error()})
	}
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
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

// handleStream is GET /v1/jobs/{id}/stream: SSE replay of a traced job's
// obs events and timeline samples.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "unknown job " + r.PathValue("id")})
		return
	}
	if j.hub == nil {
		writeError(w, &Error{Status: http.StatusConflict,
			Msg: "job " + j.id + " was not submitted with \"trace\": true"})
		return
	}
	serveStream(w, r, j.hub)
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
// store) followed by the live snapshot of whatever the simulator
// is doing right now.
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
	logBytes, compacted := s.reg.streamLogStats()
	fmt.Fprintf(w, "# HELP dwsimd_stream_log_bytes SSE wire bytes held by traced jobs' logs, finished or in flight.\n# TYPE dwsimd_stream_log_bytes gauge\n")
	fmt.Fprintf(w, "dwsimd_stream_log_bytes %d\n", logBytes)
	fmt.Fprintf(w, "# HELP dwsimd_stream_logs_compacted_total Finished logs cut back to their done frame by the retention budget.\n# TYPE dwsimd_stream_logs_compacted_total counter\n")
	fmt.Fprintf(w, "dwsimd_stream_logs_compacted_total %d\n", compacted)
	s.live.WriteMetrics(w)
}

// runJob executes one job on a pool worker. A panic under it (a simulator
// self-check, say) fails the job instead of the daemon: Session.Run drops
// the point it was computing, so a resubmission runs afresh, Suite hands
// a sweep point's panic to this goroutine (its first line is the message),
// and the machine never reaches report's free list, because runLive gives
// back only machines whose run returned.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			msg, _, _ := strings.Cut(fmt.Sprintf("panic: %v", r), "\n")
			s.reg.finish(j, msg)
			if j.hub != nil {
				j.hub.finishError(msg) // subscribers terminate
			}
		}
	}()
	s.reg.setRunning(j)
	if j.hub != nil {
		s.runTracedJob(j)
		return
	}
	// A sweep is benches x schemes, benches outer (JobRequest.Points), so the
	// first bench's points carry every scheme's knobs. Suite simulates the
	// points in parallel and the collection loop below reads warm cache.
	if len(j.points) > 1 {
		knobs := make([]report.Knobs, len(j.req.Schemes))
		for i := range knobs {
			knobs[i] = j.points[i].knobs
		}
		if _, err := s.session.Suite(j.req.Benches, knobs...); err != nil {
			s.reg.finish(j, err.Error())
			return
		}
	}
	for i := range j.points {
		p := &j.points[i]
		s.live.SetMeta(p.bench, string(p.knobs.Scheme))
		r, err := s.session.Run(p.bench, p.knobs)
		if err != nil {
			s.reg.finish(j, err.Error())
			return
		}
		s.reg.completePoint(j, i, RenderResultDoc(r, p.knobs))
	}
	s.reg.finish(j, "")
}

// runTracedJob executes a single-point traced job, streaming the trace
// through the job's hub while the machine runs.
func (s *Server) runTracedJob(j *job) {
	p := &j.points[0]
	every := j.req.TraceEvery
	if every == 0 {
		every = 1000 // the dwsim -obsevery default
	}
	tr := obs.New(every)
	pub := &publisher{hub: j.hub, tr: tr}
	s.live.SetMeta(p.bench, string(p.knobs.Scheme))
	r, err := s.session.RunTracedWith(p.bench, p.knobs, tr, func(sys *sim.System) func() {
		// Frames flow while the run is in flight, not only at the end.
		sys.Observe(s.every, func(uint64) { pub.flush() })
		return s.session.OnSystem(sys)
	})
	if err != nil {
		j.hub.finishError(err.Error())
		s.reg.finish(j, err.Error())
		return
	}
	doc := RenderResultDoc(r, p.knobs)
	s.reg.completePoint(j, 0, doc)
	s.reg.finish(j, "")
	pub.finishSuccess(doc)
}
