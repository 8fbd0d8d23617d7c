package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
// (benchmark, Knobs) point and clients can cache result URLs across
// daemon restarts.
func ResultKey(bench string, k report.Knobs) string {
	d := sha256.Sum256([]byte(k.Key(bench)))
	return hex.EncodeToString(d[:16])
}

// point is one simulation point of a job.
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
	points []point
	status string
	errMsg string
	sub    *stream // non-nil iff this is a subscriber's run
}

// PointDoc is the wire rendering of one point's lifecycle.
type PointDoc struct {
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	ResultKey string `json:"result_key"`
	ResultURL string `json:"result_url"`
	Status    string `json:"status"`
}

// JobDoc is the wire rendering of a job: what GET /v1/jobs/{id} returns
// and what POST /v1/jobs echoes back with the assigned ID.
type JobDoc struct {
	SchemaVersion int        `json:"schema_version"`
	ID            string     `json:"id"`
	Status        string     `json:"status"`
	Kind          string     `json:"kind"`
	Trace         bool       `json:"trace,omitempty"`
	StreamURL     string     `json:"stream_url,omitempty"`
	Points        []PointDoc `json:"points"`
	Error         string     `json:"error,omitempty"`
}

// registry tracks jobs and finished result documents. IDs are a logical
// sequence — j001, j002, ... in submission order — because the package
// must stay wall-clock- and randomness-free (see the package comment);
// they reset on daemon restart, which is fine because result keys, the
// durable addresses, are content-derived.
type registry struct {
	mu      sync.Mutex
	seq     int
	jobs    map[string]*job
	order   []string          // submission order for GET /v1/jobs
	results map[string][]byte // result key -> rendered RunDoc JSON
	pending map[string]int    // result key -> jobs referencing it, not yet done
}

func newRegistry() *registry {
	return &registry{
		jobs:    make(map[string]*job),
		results: make(map[string][]byte),
		pending: make(map[string]int),
	}
}

// add registers a validated request and returns its job.
func (rg *registry) add(req *JobRequest) *job {
	pts := req.Points()
	j := &job{req: req, status: StatusQueued, points: make([]point, len(pts))}
	for i, p := range pts {
		j.points[i] = point{bench: p.Bench, knobs: p.Knobs, key: ResultKey(p.Bench, p.Knobs), status: "pending"}
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.seq++
	j.id = fmt.Sprintf("j%03d", rg.seq)
	rg.jobs[j.id] = j
	rg.order = append(rg.order, j.id)
	for i := range j.points {
		if _, done := rg.results[j.points[i].key]; done {
			j.points[i].status = StatusDone
		} else {
			rg.pending[j.points[i].key]++
		}
	}
	return j
}

// get returns the job by ID.
func (rg *registry) get(id string) (*job, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	j, ok := rg.jobs[id]
	return j, ok
}

// setRunning marks the job picked up by a worker.
func (rg *registry) setRunning(j *job) {
	rg.mu.Lock()
	j.status = StatusRunning
	rg.mu.Unlock()
}

// completePoint records one finished point and its rendered document.
func (rg *registry) completePoint(j *job, i int, doc []byte) {
	rg.mu.Lock()
	j.points[i].status = StatusDone
	key := j.points[i].key
	if _, ok := rg.results[key]; !ok {
		rg.results[key] = doc
	}
	delete(rg.pending, key)
	rg.mu.Unlock()
}

// finish closes out a job; err == "" means success. Points still pending
// (after a mid-sweep failure) are marked failed and no longer owed: their
// keys stop answering "pending" unless another job still references them.
func (rg *registry) finish(j *job, errMsg string) {
	rg.mu.Lock()
	j.errMsg = errMsg
	if errMsg == "" {
		j.status = StatusDone
	} else {
		j.status = StatusFailed
		for i := range j.points {
			p := &j.points[i]
			if p.status != "pending" {
				continue
			}
			p.status = StatusFailed
			// completePoint deletes a key outright, so it may be gone already.
			if n := rg.pending[p.key]; n > 1 {
				rg.pending[p.key] = n - 1
			} else {
				delete(rg.pending, p.key)
			}
		}
	}
	rg.mu.Unlock()
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
	kind := j.req.Kind
	if kind == "" {
		kind = "run"
	}
	d := JobDoc{
		SchemaVersion: WireSchemaVersion,
		ID:            j.id,
		Status:        j.status,
		Kind:          kind,
		Trace:         j.req.Trace,
		Error:         j.errMsg,
		Points:        make([]PointDoc, len(j.points)),
	}
	if j.req.Trace {
		d.StreamURL = "/v1/jobs/" + j.id + "/stream"
	}
	for i, p := range j.points {
		d.Points[i] = PointDoc{
			Bench:     p.bench,
			Scheme:    string(p.knobs.Scheme),
			ResultKey: p.key,
			ResultURL: "/v1/results/" + p.key,
			Status:    p.status,
		}
	}
	return d
}

// list renders every job in submission order.
func (rg *registry) list() []JobDoc {
	rg.mu.Lock()
	ids := append([]string(nil), rg.order...)
	rg.mu.Unlock()
	docs := make([]JobDoc, 0, len(ids))
	for _, id := range ids {
		if j, ok := rg.get(id); ok {
			docs = append(docs, rg.doc(j))
		}
	}
	return docs
}

// counts tallies jobs by status for /metrics.
func (rg *registry) counts() map[string]int {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	c := map[string]int{StatusQueued: 0, StatusRunning: 0, StatusDone: 0, StatusFailed: 0}
	for _, id := range rg.order {
		c[rg.jobs[id].status]++
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
