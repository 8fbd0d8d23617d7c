// Package serve is the simulation-as-a-service layer: a stdlib net/http
// daemon (cmd/dwsimd) that accepts simulation and sweep jobs as validated
// JSON, deduplicates them through the singleflight report.Session,
// executes them on a bounded worker pool, and streams the observability
// events and timeline samples of a traced job's point over SSE, from a
// traced run of its own per subscriber.
//
// Wire format. Jobs arrive as JobRequest documents whose knob vector is a
// report.Knobs under the JSON names that type declares — the same names a
// result document's knobs object carries, so one can be posted back as the
// other. Decoding is strict (unknown fields and trailing garbage rejected,
// schema version pinned) and every failure maps to a 4xx status via
// *Error; the decoder is fuzzed (FuzzJobDecode) and must never panic.
//
// Determinism. The server adds no nondeterminism of its own: job IDs are
// a logical sequence (j001, j002, ...), result keys are content digests
// of the canonical point encoding, result documents are rendered exactly
// like a local Session.Run would render them (byte-identical — the e2e
// tests diff the bytes), and the package reads the wall clock only for a
// stream subscriber's write deadline, which no document depends on (the
// dwslint wallclock check applies here too).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/report"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

// WireSchemaVersion pins the request layout. Requests carrying any other
// version are rejected with 400 before validation, so schema skew between
// old clients and a new server fails loudly instead of misconfiguring a
// simulation.
const WireSchemaVersion = 1

// Error is a request-rejection error carrying the HTTP status it maps to.
// Every path out of DecodeJobRequest returns one, so handlers can blindly
// write e.Status without classifying error strings.
type Error struct {
	Status int // 4xx; 503 for a submission to a server shutting down
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// WireKnobs is a knob vector as a job spells it, before defaulting: absent
// and zero fields stand for the Table 3 values (see
// report.Knobs.WithDefaults), so a minimal request like
// {"bench":"Merge","knobs":{"scheme":"DWS.ReviveSplit"}} denotes exactly
// the configuration `dwsim -bench Merge -scheme DWS.ReviveSplit` runs, and
// two requests spelling the same point differently dedupe onto one cache
// key. It has no fields of its own; the type only keeps a vector "as
// received" apart from one with defaults applied, and its name and method
// are what the claims benchmark (bench/adapter.go) is pinned to.
type WireKnobs report.Knobs

// Knobs returns the point the vector denotes.
func (w WireKnobs) Knobs() report.Knobs { return report.Knobs(w).WithDefaults() }

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	SchemaVersion int `json:"schema_version"`
	// Kind selects the job shape: "run" (default) simulates Bench under
	// Knobs; "sweep" crosses Benches × Schemes over the shared Knobs.
	Kind  string    `json:"kind,omitempty"`
	Bench string    `json:"bench,omitempty"`
	Knobs WireKnobs `json:"knobs"`

	// Sweep dimensions (kind == "sweep" only).
	Benches []string `json:"benches,omitempty"`
	Schemes []string `json:"schemes,omitempty"`

	// Trace enables GET /v1/jobs/{id}/stream for this job (single-point
	// runs only): each request is a live run of the point with the
	// observability sink attached. TraceEvery is the timeline sampling
	// interval in cycles (0 = 1000, the dwsim default).
	Trace      bool   `json:"trace,omitempty"`
	TraceEvery uint64 `json:"trace_every,omitempty"`
}

// maxJobBody bounds a request body: the largest legitimate sweep (all
// benchmarks × all schemes, every knob spelled out) is well under 4 KiB.
const maxJobBody = 1 << 16

// DecodeJobRequest reads and strictly validates one job request. Any
// returned error is a *serve.Error carrying a 4xx status; the function
// never panics on malformed input (FuzzJobDecode).
func DecodeJobRequest(r io.Reader) (*JobRequest, *Error) {
	// The +1 keeps the handler's MaxBytesReader (capped at exactly
	// maxJobBody) as the component that trips first, so oversized bodies
	// surface as 413 rather than a truncated-JSON 400; for direct callers
	// (fuzzing) this still bounds how much we will ever read.
	dec := json.NewDecoder(io.LimitReader(r, maxJobBody+1))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge, Msg: "request body too large"}
		}
		return nil, badRequest("malformed job request: %v", err)
	}
	// A second document in the body is as suspect as an unknown field.
	if dec.More() {
		return nil, badRequest("trailing data after job request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// checkKnobs answers 400 for a point over the endpoint's caps or one the
// simulator cannot build. The caps come first: nothing is derived from a
// vector before it is known to be small.
func checkKnobs(k report.Knobs) *Error {
	err := k.CheckCaps()
	if err == nil {
		err = k.Validate()
	}
	if err != nil {
		return badRequest("knobs: %v", err)
	}
	return nil
}

// Validate checks the request against the schema: version pin, job shape,
// known benchmarks and schemes, bounded knobs.
func (r *JobRequest) Validate() *Error {
	if r.SchemaVersion != WireSchemaVersion {
		return badRequest("schema_version = %d, this server speaks %d", r.SchemaVersion, WireSchemaVersion)
	}
	k := r.Knobs.Knobs()
	switch r.Kind {
	case "", "run":
		if r.Bench == "" {
			return badRequest("run job: bench required")
		}
		if len(r.Benches) > 0 || len(r.Schemes) > 0 {
			return badRequest("run job: benches/schemes are sweep fields")
		}
		if _, err := workloads.ByName(r.Bench); err != nil {
			return badRequest("unknown bench %q", r.Bench)
		}
		if r.Knobs.Scheme == "" {
			return badRequest("run job: knobs.scheme required")
		}
		if err := checkKnobs(k); err != nil {
			return err
		}
	case "sweep":
		if r.Trace {
			return badRequest("sweep jobs cannot be traced (stream a single run instead)")
		}
		if r.Bench != "" {
			return badRequest("sweep job: use benches, not bench")
		}
		if r.Knobs.Scheme != "" {
			return badRequest("sweep job: use schemes, not knobs.scheme")
		}
		if len(r.Benches) == 0 || len(r.Schemes) == 0 {
			return badRequest("sweep job: benches and schemes both required")
		}
		if len(r.Benches)*len(r.Schemes) > 1024 {
			return badRequest("sweep of %d points exceeds the 1024-point cap", len(r.Benches)*len(r.Schemes))
		}
		for _, b := range r.Benches {
			if _, err := workloads.ByName(b); err != nil {
				return badRequest("unknown bench %q", b)
			}
		}
		for _, s := range r.Schemes {
			k.Scheme = wpu.Scheme(s)
			if err := checkKnobs(k); err != nil {
				return err
			}
		}
	default:
		return badRequest("kind = %q (want run or sweep)", r.Kind)
	}
	if r.Trace && r.TraceEvery > 1_000_000_000 {
		return badRequest("trace_every = %d out of range", r.TraceEvery)
	}
	if !r.Trace && r.TraceEvery != 0 {
		return badRequest("trace_every without trace")
	}
	return nil
}

// Points expands a validated request into its simulation points in
// deterministic order (benches outer, schemes inner — the sweep's
// presentation order).
func (r *JobRequest) Points() []report.Job {
	k := r.Knobs.Knobs()
	if r.Kind == "" || r.Kind == "run" {
		return []report.Job{{Bench: r.Bench, Knobs: k}}
	}
	pts := make([]report.Job, 0, len(r.Benches)*len(r.Schemes))
	for _, b := range r.Benches {
		for _, s := range r.Schemes {
			k.Scheme = wpu.Scheme(s)
			pts = append(pts, report.Job{Bench: b, Knobs: k})
		}
	}
	return pts
}
