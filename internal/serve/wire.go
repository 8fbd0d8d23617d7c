// Package serve is the simulation-as-a-service layer: a stdlib net/http
// daemon (cmd/dwsimd) that accepts simulation jobs as validated JSON, one
// point (a benchmark under one knob vector) each, deduplicates them through
// the singleflight report.Session, executes them on a bounded worker pool,
// and streams the observability events and timeline samples of a traced
// job's point over SSE, from a traced run of its own per subscriber. Sweeps
// run locally (dwsweep, dwsreport) through Session.Suite.
//
// Wire format. Jobs arrive as JobRequest documents whose knob vector is a
// report.Knobs under the JSON names that type declares — the same names a
// result document's knobs object carries, so one can be posted back as the
// other. Decoding is strict (unknown fields and trailing garbage rejected,
// schema version pinned) and every failure maps to a 4xx status via
// *Error; the decoder is fuzzed (FuzzJobDecode) and must never panic. The
// fields of the retired multi-point shape (kind, benches, schemes) are
// unknown fields like any other: a 400 that names the field.
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

// JobRequest is the POST /v1/jobs body: one simulation point, Bench under
// Knobs.
type JobRequest struct {
	SchemaVersion int       `json:"schema_version"`
	Bench         string    `json:"bench,omitempty"`
	Knobs         WireKnobs `json:"knobs"`

	// Trace enables GET /v1/jobs/{id}/stream for this job: each request is
	// a live run of the point with the observability sink attached.
	// TraceEvery is the timeline sampling interval in cycles (0 = 1000, the
	// dwsim default).
	Trace      bool   `json:"trace,omitempty"`
	TraceEvery uint64 `json:"trace_every,omitempty"`
}

// maxJobBody bounds a request body: a legitimate job, every knob spelled
// out, is well under 1 KiB.
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

// Validate checks the request against the schema: version pin, a known
// benchmark and scheme, bounded knobs. The knob caps come first: nothing is
// derived from a vector before it is known to be small.
func (r *JobRequest) Validate() *Error {
	if r.SchemaVersion != WireSchemaVersion {
		return badRequest("schema_version = %d, this server speaks %d", r.SchemaVersion, WireSchemaVersion)
	}
	if r.Bench == "" {
		return badRequest("bench required")
	}
	if _, err := workloads.ByName(r.Bench); err != nil {
		return badRequest("unknown bench %q", r.Bench)
	}
	if r.Knobs.Scheme == "" {
		return badRequest("knobs.scheme required")
	}
	k := r.Knobs.Knobs()
	err := k.CheckCaps()
	if err == nil {
		err = k.Validate()
	}
	if err != nil {
		return badRequest("knobs: %v", err)
	}
	if r.Trace && r.TraceEvery > 1_000_000_000 {
		return badRequest("trace_every = %d out of range", r.TraceEvery)
	}
	if !r.Trace && r.TraceEvery != 0 {
		return badRequest("trace_every without trace")
	}
	return nil
}
