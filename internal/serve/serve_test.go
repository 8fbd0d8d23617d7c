package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// testServer assembles a started Server over a fresh Session (optionally
// store-backed) and an httptest front end, torn down with the test.
func testServer(t *testing.T, workers int, withStore bool) (*Server, *report.Session, *httptest.Server) {
	t.Helper()
	opts := []report.Option{report.WithJobs(workers)}
	var st *report.Store
	if withStore {
		var err error
		st, err = report.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, report.WithStore(st))
	}
	session := report.NewSession(opts...)
	srv := New(Config{Session: session, Store: st})
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, session, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobDoc, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc JobDoc
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decoding job doc: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return doc, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var doc JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// waitJob polls the lifecycle endpoint until the job leaves the
// queued/running states, exactly as an HTTP client would.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobDoc {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		doc := getJob(t, ts, id)
		if doc.Status == StatusDone || doc.Status == StatusFailed {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %q", id, doc.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, ts *httptest.Server, key string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

const runFilterBody = `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`

// TestSubmitPollFetch is the core e2e contract: submit → poll → fetch
// returns byte-for-byte what a direct Session.Run of the same point
// renders, through a completely separate session in this process.
func TestSubmitPollFetch(t *testing.T) {
	_, _, ts := testServer(t, 2, true)

	doc, resp := postJob(t, ts, runFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if doc.ID != "j001" || doc.Kind != "run" || len(doc.Points) != 1 {
		t.Fatalf("submit echo: %+v", doc)
	}

	done := waitJob(t, ts, doc.ID)
	if done.Status != StatusDone || done.Points[0].Status != StatusDone {
		t.Fatalf("job finished as %+v", done)
	}

	got, status := fetchResult(t, ts, done.Points[0].ResultKey)
	if status != http.StatusOK {
		t.Fatalf("fetch result: status %d", status)
	}

	// The reference rendering: a direct run on an unrelated session.
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	if ResultKey("Filter", knobs) != done.Points[0].ResultKey {
		t.Fatalf("server derived result key %s, client derives %s", done.Points[0].ResultKey, ResultKey("Filter", knobs))
	}
	direct := report.NewSession()
	r, err := direct.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}
	want := RenderResultDoc(r, knobs)
	if !bytes.Equal(got, want) {
		t.Errorf("served result differs from direct Session.Run rendering:\n--- served ---\n%s\n--- direct ---\n%s", got, want)
	}
}

// TestDuplicateSubmissionsSingleflight submits the same point from many
// concurrent clients: exactly one simulation runs (the session counts
// misses), every job completes, and every fetch returns identical bytes.
func TestDuplicateSubmissionsSingleflight(t *testing.T) {
	const clients = 8
	_, session, ts := testServer(t, 4, false)

	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runFilterBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var doc JobDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Error(err)
				return
			}
			ids[i] = doc.ID
		}(i)
	}
	wg.Wait()

	var first []byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		doc := waitJob(t, ts, id)
		if doc.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, doc)
		}
		b, status := fetchResult(t, ts, doc.Points[0].ResultKey)
		if status != http.StatusOK {
			t.Fatalf("job %s result fetch: status %d", id, status)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("job %s fetched different bytes than its duplicates", id)
		}
	}

	cs := session.Stats()
	if cs.Misses != 1 {
		t.Errorf("%d duplicate submissions ran %d simulations, want exactly 1 (stats %+v)", clients, cs.Misses, cs)
	}
	if cs.MemHits != clients-1 {
		t.Errorf("MemHits = %d, want %d (every duplicate served from the singleflight cache)", cs.MemHits, clients-1)
	}
}

// TestSweepJob submits a benches × schemes sweep and checks every point
// completes with its own result.
func TestSweepJob(t *testing.T) {
	_, _, ts := testServer(t, 2, false)
	doc, resp := postJob(t, ts,
		`{"schema_version":1,"kind":"sweep","benches":["Filter"],"schemes":["Conv","DWS.ReviveSplit"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if doc.Kind != "sweep" || len(doc.Points) != 2 {
		t.Fatalf("submit echo: %+v", doc)
	}
	done := waitJob(t, ts, doc.ID)
	keys := map[string]bool{}
	for _, p := range done.Points {
		if p.Status != StatusDone {
			t.Fatalf("point %+v not done (job %+v)", p, done)
		}
		keys[p.ResultKey] = true
		if _, status := fetchResult(t, ts, p.ResultKey); status != http.StatusOK {
			t.Errorf("point %s/%s: result fetch status %d", p.Bench, p.Scheme, status)
		}
	}
	if len(keys) != 2 {
		t.Errorf("sweep points share result keys: %+v", done.Points)
	}
}

// TestResultPendingVsUnknown distinguishes the three fetch outcomes using
// a server whose workers were never started: submitted keys are pending,
// unnamed keys are unknown, and a key stops being pending once every job
// that named it has failed.
func TestResultPendingVsUnknown(t *testing.T) {
	session := report.NewSession()
	srv := New(Config{Session: session}) // no Start: jobs stay queued
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doc, resp := postJob(t, ts, runFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if doc.Status != StatusQueued {
		t.Fatalf("cold server job status %q, want queued", doc.Status)
	}

	b, status := fetchResult(t, ts, doc.Points[0].ResultKey)
	if status != http.StatusNotFound || !bytes.Contains(b, []byte(`"pending"`)) {
		t.Errorf("pending key: status %d body %s, want 404 with a pending marker", status, b)
	}
	b, status = fetchResult(t, ts, strings.Repeat("0", 32))
	if status != http.StatusNotFound || bytes.Contains(b, []byte(`"pending"`)) {
		t.Errorf("unknown key: status %d body %s, want plain 404", status, b)
	}

	// Two jobs owe the key; it stays pending until both have failed.
	dup, _ := postJob(t, ts, runFilterBody)
	for i, id := range []string{doc.ID, dup.ID} {
		j, _ := srv.reg.get(id)
		srv.reg.finish(j, "boom")
		b, status = fetchResult(t, ts, doc.Points[0].ResultKey)
		if pending := bytes.Contains(b, []byte(`"pending"`)); status != http.StatusNotFound || pending != (i == 0) {
			t.Errorf("after %d of 2 jobs failed: status %d body %s", i+1, status, b)
		}
	}
	if failed := getJob(t, ts, doc.ID); failed.Status != StatusFailed || failed.Points[0].Status != StatusFailed {
		t.Errorf("failed job renders as %+v", failed)
	}
}

// TestJobPanic injects a panic into the run of an untraced job, of a traced
// job, of that job's stream subscriber and of a sweep point (which runs on a
// Prefetch goroutine) through the session's machine hook: each job fails
// with the panic's message, the subscriber gets an error frame as its
// terminal frame, the daemon keeps serving —
// the very points that panicked included, which a retrying client resubmits
// — and the machines the panics interrupted never come back from report's
// free list.
func TestJobPanic(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	var (
		mu          sync.Mutex
		boom        bool
		interrupted = map[*sim.System]bool{}
	)
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		mu.Lock()
		defer mu.Unlock()
		if boom {
			interrupted[sys] = true
			panic("injected")
		}
		if interrupted[sys] {
			t.Errorf("machine %p ran again after a panic interrupted it", sys)
		}
		return inner(sys)
	}
	setBoom := func(v bool) { mu.Lock(); boom = v; mu.Unlock() }
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// A clean run first, so the free list has a machine to hand the next.
	warm, _ := postJob(t, ts, `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.LazySplit"}}`)
	waitJob(t, ts, warm.ID)

	setBoom(true)
	const plainBody = `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"}}`
	plain, _ := postJob(t, ts, plainBody)
	if doc := waitJob(t, ts, plain.ID); doc.Status != StatusFailed || doc.Error != "panic: injected" {
		t.Errorf("untraced job after a panic: %+v", doc)
	}
	if b, status := fetchResult(t, ts, plain.Points[0].ResultKey); status != http.StatusNotFound || bytes.Contains(b, []byte(`"pending"`)) {
		t.Errorf("result of the panicked job: status %d body %s, want plain 404", status, b)
	}
	traced, _ := postJob(t, ts, tracedFilterBody)
	frames := streamJob(t, ts, traced.ID)
	if len(frames) != 1 || frames[0].Event != "done" || frames[0].Data != `{"error":"panic: injected","status":"failed"}` {
		t.Errorf("stream of the panicked traced job: %+v", frames)
	}
	if doc := waitJob(t, ts, traced.ID); doc.Status != StatusFailed {
		t.Errorf("traced job after a panic: %+v", doc)
	}
	const sweepBody = `{"schema_version":1,"kind":"sweep","benches":["Filter"],"schemes":["Conv","DWS.ReviveSplit"]}`
	sweep, _ := postJob(t, ts, sweepBody)
	if doc := waitJob(t, ts, sweep.ID); doc.Status != StatusFailed || doc.Error != "panic: injected" {
		t.Errorf("sweep job after a panic: %+v", doc)
	}
	setBoom(false)

	// The one worker survived all three, reruns the points that panicked
	// (the session dropped them instead of leaving them in flight), and
	// runs on other machines.
	for _, body := range []string{plainBody, sweepBody, tracedFilterBody} {
		doc, _ := postJob(t, ts, body)
		if done := waitJob(t, ts, doc.ID); done.Status != StatusDone {
			t.Errorf("job after the panics: %+v", done)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(interrupted) != 4 {
		t.Errorf("%d machines were interrupted, want 4 (a panic must not reuse an earlier one's)", len(interrupted))
	}
}

func TestJobEndpointsErrors(t *testing.T) {
	_, _, ts := testServer(t, 1, false)

	resp, err := http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	// Stream of an untraced job is a 409: the trace was never recorded.
	doc, _ := postJob(t, ts, runFilterBody)
	waitJob(t, ts, doc.ID)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stream of untraced job: status %d, want 409", resp.StatusCode)
	}

	// Oversized body: the handler's MaxBytesReader maps it to 413.
	huge := fmt.Sprintf(`{"schema_version":1,"bench":%q,"knobs":{"scheme":"Conv"}}`, strings.Repeat("a", maxJobBody))
	_, resp = postJob(t, ts, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestJobList checks GET /v1/jobs preserves submission order.
func TestJobList(t *testing.T) {
	_, _, ts := testServer(t, 1, false)
	a, _ := postJob(t, ts, runFilterBody)
	b, _ := postJob(t, ts, `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"}}`)
	waitJob(t, ts, a.ID)
	waitJob(t, ts, b.ID)

	if docs := listJobs(t, ts); len(docs) != 2 || docs[0].ID != a.ID || docs[1].ID != b.ID {
		t.Errorf("job list %+v, want [%s %s] in submission order", docs, a.ID, b.ID)
	}
}

func listJobs(t *testing.T, ts *httptest.Server) []JobDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []JobDoc
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestSubmitBackpressure holds a one-worker server's worker inside its first
// job's machine hook and fills the backlog behind it: the next submission is
// refused with 429 and Retry-After, without blocking and without a trace in
// the job list. Released, the worker finishes every accepted job, and the
// backlog admits again.
func TestSubmitBackpressure(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	entered, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		hold.Do(func() { close(entered); <-release })
		return inner(sys)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { unhold.Do(func() { close(release) }) }) // the first cleanup, should the test stop early

	postJob(t, ts, runFilterBody)
	<-entered
	for i := 0; i < backlog; i++ {
		if _, resp := postJob(t, ts, runFilterBody); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d of a backlog of %d: status %d", i+1, backlog, resp.StatusCode)
		}
	}
	impatient := &http.Client{Timeout: 10 * time.Second} // a submission that blocks fails here, not at the test timeout
	resp, err := impatient.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(runFilterBody))
	if err != nil {
		t.Fatalf("submission past the backlog: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("submission past the backlog: status %d, Retry-After %q; want 429, 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	docs := listJobs(t, ts)
	if len(docs) != backlog+1 {
		t.Fatalf("%d jobs listed, want %d: the refused one was registered", len(docs), backlog+1)
	}

	unhold.Do(func() { close(release) })
	for _, d := range docs {
		if done := waitJob(t, ts, d.ID); done.Status != StatusDone {
			t.Errorf("accepted job %s ended %+v", d.ID, done)
		}
	}
	if _, resp := postJob(t, ts, runFilterBody); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submission after the backlog drained: status %d", resp.StatusCode)
	}
}

// TestCloseRacesSubmissions fires a burst of submissions straight at the
// handler (where a panic fails the test, unlike behind net/http's recovery)
// while Close runs: every submission is answered 202, 429 or 503, and once
// Close has returned every job it accepted has finished and none is left
// queued. A submission after Close is 503.
func TestCloseRacesSubmissions(t *testing.T) {
	srv := New(Config{Session: report.NewSession(report.WithJobs(2))})
	srv.Start()
	submit := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(runFilterBody)))
		return rec.Code
	}
	const burst = 200
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := range codes {
		if i == burst/4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.Close()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = submit()
		}()
	}
	wg.Wait()
	srv.Close() // a second Close only waits, like the first

	accepted := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("submission %d: status %d", i, code)
		}
	}
	docs := srv.reg.list()
	if len(docs) != accepted {
		t.Errorf("%d jobs registered, %d accepted", len(docs), accepted)
	}
	for _, d := range docs {
		if d.Status != StatusDone {
			t.Errorf("job %s is %s after Close", d.ID, d.Status)
		}
	}
	if code := submit(); code != http.StatusServiceUnavailable {
		t.Errorf("submission after Close: status %d, want 503", code)
	}
}

// TestMetricsEndpoint checks the daemon counters surface after a run,
// including the store series.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := testServer(t, 1, true)
	doc, _ := postJob(t, ts, runFilterBody)
	waitJob(t, ts, doc.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dwsimd_jobs{state="done"} 1`,
		`dwsimd_session_requests_total{source="simulated"} 1`,
		`dwsimd_store_ops_total{op="save"} 1`,
		`dwsimd_store_ops_total{op="save_error"} 0`,
		`dwsimd_store_ops_total{op="corrupt"} 0`,
		"dwsimd_store_records 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, _, ts := testServer(t, 1, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Errorf("healthz: status %d body %s", resp.StatusCode, b)
	}
}
