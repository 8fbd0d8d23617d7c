package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/report"
)

// Job lifecycle: queued → running → done | failed. The registry is the
// server's source of truth for job state and completed result documents;
// it never blocks on simulation (workers mutate it under a short mutex).
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// ResultKey addresses one simulation point: a digest of the session cache
// key, so every server process derives the same key for the same
// (benchmark, Knobs) point. The key is stable across daemon restarts, but
// the results a daemon serves are only those of points its own jobs named:
// a new daemon answers GET /v1/results/{key} with 404 "unknown result key"
// until a job names the point again, which the session then serves from the
// store if it holds the point.
func ResultKey(bench string, k report.Knobs) string {
	d := sha256.Sum256([]byte(k.Key(bench)))
	return hex.EncodeToString(d[:16])
}

// point is a job's simulation point.
type point struct {
	bench  string
	knobs  report.Knobs
	key    string
	status string // pending | done | failed
}

// job is the registry's record of one submitted request, or, registered
// nowhere, a stream subscriber's traced run of a job's point.
type job struct {
	id     string
	req    *JobRequest
	point  point
	status string
	errMsg string
	sub    *stream // non-nil iff this is a subscriber's run
}

// PointDoc is the wire rendering of a job's point.
type PointDoc struct {
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	ResultKey string `json:"result_key"`
	ResultURL string `json:"result_url"`
	Status    string `json:"status"`
}

// JobDoc is the wire rendering of a job: what GET /v1/jobs/{id} returns
// and what POST /v1/jobs echoes back with the assigned ID. Points always
// holds exactly one point, the job's.
type JobDoc struct {
	SchemaVersion int        `json:"schema_version"`
	ID            string     `json:"id"`
	Status        string     `json:"status"`
	Trace         bool       `json:"trace,omitempty"`
	StreamURL     string     `json:"stream_url,omitempty"`
	Points        []PointDoc `json:"points"`
	Error         string     `json:"error,omitempty"`
}

// registry tracks jobs and finished result documents. IDs are a logical
// sequence — j001, j002, ... in submission order — because the package
// must stay wall-clock- and randomness-free (see the package comment), so
// the job of ID jN is jobs[N-1]. IDs reset on daemon restart.
type registry struct {
	mu      sync.Mutex
	jobs    []*job            // in submission order
	results map[string][]byte // result key -> rendered RunDoc JSON
	pending map[string]int    // result key -> jobs owing it
}

func newRegistry() *registry {
	return &registry{results: make(map[string][]byte), pending: make(map[string]int)}
}

// add registers a validated request and returns its job.
func (rg *registry) add(req *JobRequest) *job {
	k := req.Knobs.Knobs()
	j := &job{req: req, status: StatusQueued,
		point: point{bench: req.Bench, knobs: k, key: ResultKey(req.Bench, k), status: "pending"}}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.jobs = append(rg.jobs, j)
	j.id = fmt.Sprintf("j%03d", len(rg.jobs))
	if _, done := rg.results[j.point.key]; done {
		j.point.status = StatusDone
	} else {
		rg.pending[j.point.key]++
	}
	return j
}

// get returns the job by ID. Only the ID add assigned names a job: j1 and
// j0001 do not name j001.
func (rg *registry) get(id string) (*job, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if err != nil || n < 1 || n > len(rg.jobs) || rg.jobs[n-1].id != id {
		return nil, false
	}
	return rg.jobs[n-1], true
}

// setRunning marks the job picked up by a worker.
func (rg *registry) setRunning(j *job) {
	rg.mu.Lock()
	j.status = StatusRunning
	rg.mu.Unlock()
}

// finish closes out a job: done with its point's rendered document when
// errMsg is "", failed otherwise. A failed job no longer owes its point:
// the key stops answering "pending" unless another job still owes it.
func (rg *registry) finish(j *job, doc []byte, errMsg string) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	p := &j.point
	j.errMsg = errMsg
	if errMsg == "" {
		j.status, p.status = StatusDone, StatusDone
		if _, ok := rg.results[p.key]; !ok {
			rg.results[p.key] = doc
		}
		delete(rg.pending, p.key)
		return
	}
	j.status = StatusFailed
	if p.status != "pending" {
		return
	}
	p.status = StatusFailed
	// A job that succeeds deletes its key outright, so it may be gone already.
	if n := rg.pending[p.key]; n > 1 {
		rg.pending[p.key] = n - 1
	} else {
		delete(rg.pending, p.key)
	}
}

// result returns the rendered document for a result key, with a
// three-way outcome: (doc, true, _) when done, (nil, false, true) when a
// registered job still owes it, and (nil, false, false) for keys no job
// here has ever named.
func (rg *registry) result(key string) (doc []byte, ok, pending bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if doc, ok := rg.results[key]; ok {
		return doc, true, false
	}
	_, pending = rg.pending[key]
	return nil, false, pending
}

// doc renders a job under the registry lock.
func (rg *registry) doc(j *job) JobDoc {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	p := j.point
	d := JobDoc{
		SchemaVersion: WireSchemaVersion,
		ID:            j.id,
		Status:        j.status,
		Trace:         j.req.Trace,
		Error:         j.errMsg,
		Points: []PointDoc{{
			Bench:     p.bench,
			Scheme:    string(p.knobs.Scheme),
			ResultKey: p.key,
			ResultURL: "/v1/results/" + p.key,
			Status:    p.status,
		}},
	}
	if j.req.Trace {
		d.StreamURL = "/v1/jobs/" + j.id + "/stream"
	}
	return d
}

// counts tallies jobs by status for /metrics.
func (rg *registry) counts() map[string]int {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	c := map[string]int{StatusQueued: 0, StatusRunning: 0, StatusDone: 0, StatusFailed: 0}
	for _, j := range rg.jobs {
		c[j.status]++
	}
	return c
}

// RenderResultDoc is the canonical rendering of one completed point: the
// same report.RunDoc a local `dwsim -stats` run would emit, with the two
// server-independent fields pinned (source "server", wall time zero) so
// the bytes are identical no matter which process — or which of N
// deduplicated clients — asked. The e2e tests diff these bytes against a
// direct Session.Run rendering.
func RenderResultDoc(r report.Result, k report.Knobs) []byte {
	doc := report.NewRunDoc(r, k, "server", 0)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// RunDoc is a closed struct of marshalable fields; failure here is a
		// programming error, not an input error.
		panic(fmt.Sprintf("serve: marshal result doc: %v", err))
	}
	return append(b, '\n')
}
