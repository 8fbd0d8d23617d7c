package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/wpu"
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

// registered renders the registry's jobs in submission order.
func registered(srv *Server) []JobDoc {
	srv.reg.mu.Lock()
	jobs := srv.reg.jobs
	srv.reg.mu.Unlock()
	docs := make([]JobDoc, len(jobs))
	for i, j := range jobs {
		docs[i] = srv.reg.doc(j)
	}
	return docs
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
	if doc.ID != "j001" || len(doc.Points) != 1 {
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
		srv.reg.finish(j, nil, "boom")
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
// job and of that job's stream subscriber through the session's machine
// hook: each job fails with the panic's message, the subscriber gets an
// error frame as its terminal frame, the daemon keeps serving —
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
	session.OnSystem = func(j report.Job, sys *sim.System) func() {
		mu.Lock()
		defer mu.Unlock()
		if boom {
			interrupted[sys] = true
			panic("injected")
		}
		if interrupted[sys] {
			t.Errorf("machine %p ran again after a panic interrupted it", sys)
		}
		return inner(j, sys)
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
	setBoom(false)

	// The one worker survived all three panics, reruns the points that
	// panicked (the session dropped them instead of leaving them in
	// flight), and runs on other machines.
	for _, body := range []string{plainBody, tracedFilterBody} {
		doc, _ := postJob(t, ts, body)
		if done := waitJob(t, ts, doc.ID); done.Status != StatusDone {
			t.Errorf("job after the panics: %+v", done)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(interrupted) != 3 {
		t.Errorf("%d machines were interrupted, want 3 (a panic must not reuse an earlier one's)", len(interrupted))
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

// TestJobRoutes: a job is one point, so the daemon has no job list (GET
// /v1/jobs is 405) and takes no sweep body (400 naming its first field);
// and only the ID a job was given names it, so j1 and j0001 are not j001.
func TestJobRoutes(t *testing.T) {
	_, _, ts := testServer(t, 1, false)
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/jobs"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: status %d, want 405", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"schema_version":1,"kind":"sweep","benches":["Filter"],"schemes":["Conv","DWS.ReviveSplit"]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte(`\"kind\"`)) {
		t.Errorf("sweep body: status %d body %s, want 400 naming \"kind\"", resp.StatusCode, b)
	}

	doc, _ := postJob(t, ts, runFilterBody)
	if doc.ID != "j001" {
		t.Fatalf("first job is %q, want j001", doc.ID)
	}
	waitJob(t, ts, doc.ID)
	for _, id := range []string{"j1", "j01", "j0001", "001", "J001", "j+01", "j000", "j002"} {
		if code := get("/v1/jobs/" + id); code != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s: status %d, want 404", id, code)
		}
	}
}

// TestResultKeyAcrossRestart: a result key is the same address in a new
// daemon over the same store, but a daemon serves only the points its own
// jobs named. The new one answers the key with a plain 404 until a job names
// the point again, and that job's point comes from the store, not from a
// simulation.
func TestResultKeyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	start := func() (*Server, *httptest.Server) {
		st, err := report.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Session: report.NewSession(report.WithJobs(1), report.WithStore(st)), Store: st})
		srv.Start()
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	srv, ts := start()
	doc, _ := postJob(t, ts, runFilterBody)
	key := waitJob(t, ts, doc.ID).Points[0].ResultKey
	want, status := fetchResult(t, ts, key)
	if status != http.StatusOK {
		t.Fatalf("result before the restart: status %d", status)
	}
	ts.Close()
	srv.Close()

	_, ts = start()
	if b, status := fetchResult(t, ts, key); status != http.StatusNotFound ||
		!bytes.Contains(b, []byte("unknown result key")) || bytes.Contains(b, []byte(`"pending"`)) {
		t.Errorf("key after the restart: status %d body %s, want a plain 404 unknown result key", status, b)
	}
	doc, _ = postJob(t, ts, runFilterBody)
	if done := waitJob(t, ts, doc.ID); done.Status != StatusDone || done.Points[0].ResultKey != key {
		t.Fatalf("resubmitted job: %+v, want done under key %s", done, key)
	}
	if got, status := fetchResult(t, ts, key); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("resubmitted point: status %d, same bytes %v", status, bytes.Equal(got, want))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range []string{
		`dwsimd_session_requests_total{source="disk"} 1`,
		`dwsimd_session_requests_total{source="simulated"} 0`,
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("metrics after the resubmission lack %q:\n%s", line, body)
		}
	}
}

// TestSubmitBackpressure holds a one-worker server's worker inside its first
// job's machine hook and fills the backlog behind it: the next submission is
// refused with 429 and Retry-After, without blocking and without a trace in
// the registry. Released, the worker finishes every accepted job, and the
// backlog admits again.
func TestSubmitBackpressure(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	entered, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	inner := session.OnSystem
	session.OnSystem = func(j report.Job, sys *sim.System) func() {
		hold.Do(func() { close(entered); <-release })
		return inner(j, sys)
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
	docs := registered(srv)
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
	docs := registered(srv)
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

// TestMetricsLabelTheirRun: after an FFT/Conv job and then two concurrent
// Filter jobs (Conv and DWS.ReviveSplit) on a two-worker server, every
// dwsim_* series on /metrics carries the (bench, scheme) of the run whose
// counters it prints, and equals that point's result document. The two
// Filter runs refresh the snapshot at once, so a label that one run set and
// the other's counters overwrote would name the wrong point.
func TestMetricsLabelTheirRun(t *testing.T) {
	_, _, ts := testServer(t, 2, false)
	docs := map[[2]string]report.RunDoc{}
	for _, bodies := range [][]string{
		{`{"schema_version":1,"bench":"FFT","knobs":{"scheme":"Conv"}}`},
		{`{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"}}`,
			`{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"}}`},
	} {
		var ids []string
		for _, body := range bodies {
			doc, _ := postJob(t, ts, body)
			ids = append(ids, doc.ID)
		}
		for _, id := range ids {
			p := waitJob(t, ts, id).Points[0]
			b, status := fetchResult(t, ts, p.ResultKey)
			var rd report.RunDoc
			if err := json.Unmarshal(b, &rd); status != http.StatusOK || err != nil {
				t.Fatalf("result of %s/%s: status %d, %v", p.Bench, p.Scheme, status, err)
			}
			docs[[2]string{rd.Bench, rd.Scheme}] = rd
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "dwsim_") {
			got[name] = val
		}
	}
	var bench, scheme string
	if m := regexp.MustCompile(`(?m)^dwsim_cycles_total\{bench="([^"]*)",scheme="([^"]*)"\} `).FindSubmatch(body); m != nil {
		bench, scheme = string(m[1]), string(m[2])
	}
	rd, ok := docs[[2]string{bench, scheme}]
	if !ok {
		t.Fatalf("dwsim_cycles_total labelled %q/%q, not a point that ran:\n%s", bench, scheme, body)
	}
	labels := fmt.Sprintf("bench=%q,scheme=%q", bench, scheme)
	series := func(name string) string { return name + "{" + labels + "}" }
	want := map[string]uint64{
		series("dwsim_cycles_total"):        rd.Cycles,
		series("dwsim_wpu_cycles_total"):    rd.WPU.Cycles(),
		series("dwsim_instructions_total"):  rd.WPU.Issued,
		series("dwsim_l1_accesses_total"):   rd.L1.Accesses,
		series("dwsim_l1_misses_total"):     rd.L1.Misses,
		series("dwsim_l2_misses_total"):     rd.L2.Misses,
		series("dwsim_dram_accesses_total"): rd.DRAMAccesses,
		series("dwsim_l2_mshr_outstanding"): 0,
		series("dwsim_run_done"):            1,
	}
	for i, v := range rd.WPU.CycleBuckets() {
		want[fmt.Sprintf("dwsim_cycle_bucket_total{%s,cause=%q}", labels, wpu.CycleBucketLabels[i])] = v
	}
	for name, v := range want {
		if got[name] != fmt.Sprint(v) {
			t.Errorf("%s = %q, the %s/%s result document says %d", name, got[name], bench, scheme, v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("series %s does not carry the labels %s", name, labels)
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
