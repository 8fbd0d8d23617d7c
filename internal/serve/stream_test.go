package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	Event string
	Data  string
}

// readSSE consumes a text/event-stream body into frames, stopping after
// the terminal "done" frame (or when the stream ends).
func readSSE(t *testing.T, body *bufio.Scanner) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if cur.Event == "done" {
					return frames
				}
				cur = sseFrame{}
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

// streamJob opens the job's SSE endpoint and reads it to completion.
func streamJob(t *testing.T, ts *httptest.Server, id string) []sseFrame {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	return readSSE(t, bufio.NewScanner(resp.Body))
}

const tracedFilterBody = `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.ReviveSplit"},"trace":true,"trace_every":500}`

// TestStreamMatchesOfflineTrace is the streaming-equivalence contract: a
// traced run streamed over SSE delivers exactly the events and timeline
// samples an offline RunTraced of the same point records — same content,
// same order — and a subscriber connecting after completion, whose run is
// its own, receives the identical sequence a live one saw. A prefix of the event frames is
// golden-pinned (testdata/stream_filter_prefix.golden, -update to
// rewrite) so the wire rendering cannot drift silently.
func TestStreamMatchesOfflineTrace(t *testing.T) {
	srv, _, ts := testServer(t, 2, false)
	srv.every = 256 // publish often enough that frames flow mid-run

	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if doc.StreamURL == "" {
		t.Fatalf("traced job doc has no stream_url: %+v", doc)
	}

	// Live subscriber: attached while the job is (typically) still running;
	// its stream is a run of its own, so the race is benign.
	live := streamJob(t, ts, doc.ID)
	// Late subscriber: attached strictly after completion.
	waitJob(t, ts, doc.ID)
	replay := streamJob(t, ts, doc.ID)

	if len(live) == 0 || live[len(live)-1].Event != "done" {
		t.Fatalf("live stream did not terminate with a done frame: %d frames", len(live))
	}
	if len(replay) != len(live) {
		t.Fatalf("late subscriber saw %d frames, live saw %d", len(replay), len(live))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("frame %d differs between live and late subscribers:\n  live   %+v\n  replay %+v", i, live[i], replay[i])
		}
	}

	// The offline equivalent: same point, same sampling interval, fresh
	// session, no server anywhere near it.
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	tr := obs.New(500)
	direct := report.NewSession()
	r, err := direct.RunTraced("Filter", knobs, tr)
	if err != nil {
		t.Fatal(err)
	}

	var evFrames, saFrames []string
	for _, f := range live[:len(live)-1] {
		switch f.Event {
		case "obs":
			evFrames = append(evFrames, f.Data)
		case "sample":
			saFrames = append(saFrames, f.Data)
		default:
			t.Fatalf("unexpected frame event %q", f.Event)
		}
	}
	if len(evFrames) != len(tr.Events) {
		t.Fatalf("streamed %d events, offline trace has %d", len(evFrames), len(tr.Events))
	}
	for i, e := range tr.Events {
		if want := string(mustJSON(e)); evFrames[i] != want {
			t.Fatalf("event %d: streamed %s, offline %s", i, evFrames[i], want)
		}
	}
	if len(saFrames) != len(tr.Samples) {
		t.Fatalf("streamed %d samples, offline trace has %d", len(saFrames), len(tr.Samples))
	}
	for i, s := range tr.Samples {
		if want := string(mustJSON(s)); saFrames[i] != want {
			t.Fatalf("sample %d: streamed %s, offline %s", i, saFrames[i], want)
		}
	}

	// The terminal done frame carries the canonical result document,
	// compacted to one SSE line.
	var compact bytes.Buffer
	if err := json.Compact(&compact, RenderResultDoc(r, knobs)); err != nil {
		t.Fatal(err)
	}
	if got := live[len(live)-1].Data; got != compact.String() {
		t.Errorf("done frame differs from the canonical result doc:\n%s\nvs\n%s", got, compact.String())
	}

	// Golden prefix: the first event frames, pinned byte-for-byte.
	const prefixN = 10
	n := prefixN
	if len(evFrames) < n {
		n = len(evFrames)
	}
	golden := filepath.Join("testdata", "stream_filter_prefix.golden")
	gotPrefix := strings.Join(evFrames[:n], "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(gotPrefix), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if gotPrefix != string(want) {
		t.Errorf("streamed event prefix drifted from %s:\n--- got ---\n%s--- want ---\n%s(run with -update to accept)", golden, gotPrefix, want)
	}
}

// TestPublisherHoldsOnePeriod fills a trace in three bursts of events and
// samples with a publish after each, as the publish observer does. Every
// publish must leave the trace empty and its capacity no larger than the
// largest burst's, and be one write to the connection of exactly the wire
// rendering of its burst, in cycle order, events first on a tie. Burst sizes
// are powers of two, so append's growth lands exactly on them.
func TestPublisherHoldsOnePeriod(t *testing.T) {
	tr := obs.New(0)
	w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
	st := &stream{w: w, rc: http.NewResponseController(w), ctx: context.Background(), timeout: time.Minute}
	bursts := []struct{ events, samples int }{{64, 4}, {256, 16}, {32, 2}}
	var want []byte
	for b, burst := range bursts {
		// Every per-th event shares its cycle with the sample after it.
		per := burst.events / burst.samples
		for i := 0; i < burst.events; i++ {
			e := obs.Event{
				Cycle: uint64(b*10000 + 3*i), Kind: obs.EvBranchSubdiv + obs.EventKind(i%5),
				Unit: i%4 - 1, Warp: i % 3, PC: i, Mask: uint64(i) << 7, Mask2: ^uint64(i), Addr: uint64(b) << 40,
			}
			tr.Emit(e)
			want = append(e.AppendJSON(append(want, "event: obs\ndata: "...)), "\n\n"...)
			if (i+1)%per == 0 {
				s := obs.Sample{Cycle: e.Cycle, WPU: i % 4, Busy: uint64(i), Issued: uint64(b), SlotWaiters: i / per}
				tr.AddSample(s)
				want = append(s.AppendJSON(append(want, "event: sample\ndata: "...)), "\n\n"...)
			}
		}
		if err := st.publish(tr); err != nil {
			t.Fatalf("publish %d: %v", b, err)
		}

		if len(tr.Events) != 0 || len(tr.Samples) != 0 {
			t.Fatalf("after publish %d the trace holds %d events and %d samples, want none", b, len(tr.Events), len(tr.Samples))
		}
		if c := cap(tr.Events); c > 256 {
			t.Errorf("after publish %d cap(tr.Events) = %d, larger than the largest burst (256)", b, c)
		}
		if c := cap(tr.Samples); c > 16 {
			t.Errorf("after publish %d cap(tr.Samples) = %d, larger than the largest burst (16)", b, c)
		}
		if len(w.sizes) != b+1 {
			t.Errorf("%d publishes made %d writes, want one each", b+1, len(w.sizes))
		}
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("after publish %d the connection holds %d bytes, want the %d-byte rendering of bursts 0..%d", b, len(got), len(want), b)
		}
	}
	if ct := w.Header().Get("Content-Type"); w.Code != http.StatusOK || ct != "text/event-stream" {
		t.Errorf("response status %d, content type %q", w.Code, ct)
	}
}

// writeSizes records the length of every Write on a ResponseRecorder.
type writeSizes struct {
	*httptest.ResponseRecorder
	sizes []int
}

func (w *writeSizes) Write(b []byte) (int, error) {
	w.sizes = append(w.sizes, len(b))
	return w.ResponseRecorder.Write(b)
}

// TestStreamDisconnect hangs up mid-stream and checks the two promised
// non-effects: no goroutine outlives the subscriber, and the job's cached
// result is exactly what an undisturbed run produces.
func TestStreamDisconnect(t *testing.T) {
	_, _, ts := testServer(t, 1, false)

	g0 := runtime.NumGoroutine()

	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Subscribe on a cancellable connection and hang up after the first
	// frame (or immediately, if the run outpaced us — the guarantees under
	// test hold either way).
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+doc.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	sresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	sresp.Body.Read(buf) //nolint:errcheck // any bytes (or none) will do
	cancel()
	sresp.Body.Close()
	tr.CloseIdleConnections()

	done := waitJob(t, ts, doc.ID)
	if done.Status != StatusDone {
		t.Fatalf("job after disconnect: %+v", done)
	}

	// The cached result is unperturbed: identical bytes to a direct run.
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	got, status := fetchResult(t, ts, done.Points[0].ResultKey)
	if status != http.StatusOK {
		t.Fatalf("result fetch after disconnect: status %d", status)
	}
	direct := report.NewSession()
	r, err := direct.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderResultDoc(r, knobs); !bytes.Equal(got, want) {
		t.Errorf("disconnect perturbed the cached result:\n--- served ---\n%s\n--- direct ---\n%s", got, want)
	}

	// No goroutine outlives the subscriber. The pool workers and httptest
	// machinery predate g0; only connections opened since — the dead stream
	// plus the poll helpers' keep-alives, both closed below — could push
	// the count up, so it must settle back.
	settleGoroutines(t, g0, tr)
}

// settleGoroutines waits up to ten seconds for the goroutine count to fall
// back to g0, closing idle client connections as it goes.
func settleGoroutines(t *testing.T, g0 int, tr *http.Transport) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		tr.CloseIdleConnections()
		if runtime.NumGoroutine() <= g0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamRaw reads the job's SSE endpoint to the end and returns the body
// as it came off the wire.
func streamRaw(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// heldServer assembles a one-worker server whose every run waits at its
// machine hook for a token on release, so that a test can hold the worker
// inside a job.
func heldServer(t *testing.T) (*Server, *httptest.Server, chan<- struct{}) {
	t.Helper()
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	release := make(chan struct{}, 1)
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		<-release
		return inner(sys)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // the first cleanup: no run waits for ever
	return srv, ts, release
}

// TestStreamAdmission asks for the stream of a finished traced job while a
// held worker's backlog is full: the subscriber's run is refused like a
// submission, 429 with Retry-After, and registers nothing. After Close the
// same request is 503.
func TestStreamAdmission(t *testing.T) {
	srv, ts, release := heldServer(t)
	traced, _ := postJob(t, ts, tracedFilterBody)
	release <- struct{}{}
	waitJob(t, ts, traced.ID)

	// Hold the worker in a job of a point not yet run, then fill the
	// backlog behind it.
	const convBody = `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"}}`
	held, _ := postJob(t, ts, convBody)
	for deadline := time.Now().Add(time.Minute); getJob(t, ts, held.ID).Status != StatusRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", held.ID)
		}
	}
	for i := 0; i < backlog; i++ {
		if _, resp := postJob(t, ts, convBody); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d of a backlog of %d: status %d", i+1, backlog, resp.StatusCode)
		}
	}
	before := listJobs(t, ts)
	impatient := &http.Client{Timeout: 10 * time.Second} // a request that blocks fails here, not at the test timeout
	resp, err := impatient.Get(ts.URL + "/v1/jobs/" + traced.ID + "/stream")
	if err != nil {
		t.Fatalf("stream past the backlog: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("stream past the backlog: status %d, Retry-After %q; want 429, 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if after := listJobs(t, ts); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("the refused subscriber changed the job list:\n%+v\nvs\n%+v", after, before)
	}

	release <- struct{}{} // the backlog's jobs are memory hits of the held one
	srv.Close()
	for _, d := range srv.reg.list() {
		if d.Status != StatusDone {
			t.Errorf("job %s is %s after Close", d.ID, d.Status)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + traced.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("stream after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestStreamReplayDisconnect hangs up in the middle of the stream of a
// finished job, in the shape of TestStreamDisconnect: once the subscriber's
// run has stopped, no goroutine outlives the subscriber, and the session's
// cached result for the point is the one it held before.
func TestStreamReplayDisconnect(t *testing.T) {
	_, session, ts := testServer(t, 1, false)
	g0 := runtime.NumGoroutine()

	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitJob(t, ts, doc.ID)
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	cached, err := session.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+doc.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	sresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	sresp.Body.Read(buf) //nolint:errcheck // any bytes (or none) will do
	cancel()
	sresp.Body.Close()
	tr.CloseIdleConnections()

	// One worker runs jobs in order, so once a later job is done the
	// subscriber's run has ended.
	after, _ := postJob(t, ts, runFilterBody)
	waitJob(t, ts, after.ID)

	r, err := session.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderResultDoc(r, knobs), RenderResultDoc(cached, knobs); !bytes.Equal(got, want) {
		t.Errorf("the subscriber's run changed the session's cached result:\n--- after ---\n%s\n--- before ---\n%s", got, want)
	}
	settleGoroutines(t, g0, tr)
}

// TestStreamReplayMidRun asks for the stream of a traced job while the job's
// own run is held by an observer in mid-run: the subscriber's run, on the
// second worker, streams every frame from the first while the job is still
// running, and its bytes are those a subscriber of the finished job reads.
func TestStreamReplayMidRun(t *testing.T) {
	session := report.NewSession(report.WithJobs(2))
	srv := New(Config{Session: session})
	srv.every = 256
	held, resume := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		if sys.Cfg.Trace == nil { // the job's own run
			sys.Observe(256, func(cycle uint64) {
				if cycle > 0 {
					hold.Do(func() { close(held); <-resume })
				}
			})
		}
		return inner(sys)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resumeOnce := func() { unhold.Do(func() { close(resume) }) }
	t.Cleanup(resumeOnce) // the first cleanup: no run waits for ever

	doc, _ := postJob(t, ts, tracedFilterBody)
	select {
	case <-held:
	case <-time.After(time.Minute):
		t.Fatal("the job's run never reached its first period")
	}
	mid := streamRaw(t, ts, doc.ID)
	if st := getJob(t, ts, doc.ID).Status; st != StatusRunning {
		t.Errorf("job is %s while its run is held", st)
	}
	resumeOnce()
	if done := waitJob(t, ts, doc.ID); done.Status != StatusDone {
		t.Fatalf("job after a mid-run subscriber: %+v", done)
	}
	if late := streamRaw(t, ts, doc.ID); !bytes.Equal(mid, late) {
		t.Errorf("the mid-run subscriber read %d bytes, a subscriber of the finished job %d", len(mid), len(late))
	}
}

// smallSendBuffers shrinks the kernel send buffer of every accepted
// connection, so that a client that stops reading blocks the server's
// writes after a few kilobytes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10) //nolint:errcheck // the kernel's minimum is fine too
	}
	return c, err
}

// TestStreamStopsOnSlowOrGoneSubscriber runs the two ways a subscriber's run
// is stopped on a one-worker server. A client that sends its request and
// never reads holds the worker only until a write passes the deadline: the
// run stops before its end, and a job queued behind it completes. A client
// that hangs up mid-run stops its run at the next publish period: the run
// ends in the very cycle of the period after the one in which the server saw
// the request end. Afterwards the goroutine count is back to its baseline,
// and no machine of a stopped run was handed to a later run.
func TestStreamStopsOnSlowOrGoneSubscriber(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	srv.every = 256
	srv.writeTimeout = 200 * time.Millisecond
	var (
		mu      sync.Mutex
		stopped = map[*sim.System]uint64{} // each traced run's machine → the cycle it ended in
		period  func(call int)             // called in each period of a traced run, after its publisher
	)
	started := make(chan struct{}, 1)
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := stopped[sys]; ok {
			t.Errorf("machine %p of a stopped run was recycled", sys)
		}
		finish := inner(sys)
		if sys.Cfg.Trace == nil {
			return finish
		}
		calls := 0
		sys.Observe(srv.every, func(uint64) {
			calls++
			mu.Lock()
			f := period
			mu.Unlock()
			if f != nil {
				f(calls)
			}
		})
		select {
		case started <- struct{}{}:
		default:
		}
		return func() {
			mu.Lock()
			stopped[sys] = sys.Cycles()
			mu.Unlock()
			finish()
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	reqCtx := make(chan context.Context, 1) // the server's view of the stream request
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			select {
			case reqCtx <- r.Context():
			default:
			}
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)

	doc, _ := postJob(t, ts, tracedFilterBody)
	waitJob(t, ts, doc.ID)
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	full, err := session.Run("Filter", knobs) // the job's own run cached it
	if err != nil {
		t.Fatal(err)
	}
	g0 := runtime.NumGoroutine()

	// A subscriber that never reads.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetReadBuffer(4 << 10) //nolint:errcheck // the kernel's minimum is fine too
	fmt.Fprintf(conn, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: dwsimd\r\n\r\n", doc.ID)
	select {
	case <-started:
	case <-time.After(time.Minute):
		t.Fatal("the silent subscriber's run never started")
	}
	<-reqCtx
	queued, _ := postJob(t, ts, `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"Conv"}}`)
	if d := waitJob(t, ts, queued.ID); d.Status != StatusDone {
		t.Fatalf("the job queued behind a silent subscriber: %+v", d)
	}
	conn.Close()
	mu.Lock()
	silent := maps.Clone(stopped)
	mu.Unlock()
	for _, c := range silent {
		if len(silent) != 1 || c >= full.Cycles {
			t.Fatalf("the silent subscriber's run ended at cycle %d of %d (%d traced runs)", c, full.Cycles, len(silent))
		}
	}

	// A subscriber that hangs up in period hangUp.
	const hangUp = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mu.Lock()
	period = func(call int) {
		if call != hangUp {
			return
		}
		cancel()
		select {
		case <-(<-reqCtx).Done():
		case <-time.After(time.Minute):
			t.Error("the server never saw the request end")
		}
	}
	mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+doc.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	if resp, err := (&http.Client{Transport: tr}).Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // it ends when the request is cancelled
		resp.Body.Close()
	}
	after, _ := postJob(t, ts, `{"schema_version":1,"bench":"Filter","knobs":{"scheme":"DWS.LazySplit"}}`)
	if d := waitJob(t, ts, after.ID); d.Status != StatusDone {
		t.Fatalf("the job after a hung-up subscriber: %+v", d)
	}
	mu.Lock()
	var ended []uint64
	for sys, c := range stopped {
		if _, ok := silent[sys]; !ok {
			ended = append(ended, c)
		}
	}
	mu.Unlock()
	// The period calls are at cycles 0, every, 2·every, ...: call hangUp is
	// at (hangUp-1)·every, and the next, which must stop the run, at
	// hangUp·every.
	if want := uint64(hangUp) * srv.every; len(ended) != 1 || ended[0] != want {
		t.Errorf("the hung-up subscriber's run ended at cycles %v, want %d", ended, want)
	}
	settleGoroutines(t, g0, tr)
}
