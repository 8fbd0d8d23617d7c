package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// same order — and a subscriber connecting after completion replays the
// identical sequence a live one saw. A prefix of the event frames is
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

	// Live subscriber: attached while the simulation is (typically) still
	// running; replay-from-zero makes the race benign.
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
// samples with a flush after each, as the publish observer does. Every
// flush must leave the trace empty, its capacity no larger than the largest
// burst's, and the hub holding records that render to exactly the wire
// rendering of the bursts so far in cycle order, events first on a tie.
// Burst sizes are powers of two, so append's growth lands exactly on them.
func TestPublisherHoldsOnePeriod(t *testing.T) {
	tr := obs.New(0)
	hub := newStreamHub()
	pub := &publisher{hub: hub, tr: tr}
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
		pub.flush()

		if len(tr.Events) != 0 || len(tr.Samples) != 0 {
			t.Fatalf("after flush %d the trace holds %d events and %d samples, want none", b, len(tr.Events), len(tr.Samples))
		}
		if c := cap(tr.Events); c > 256 {
			t.Errorf("after flush %d cap(tr.Events) = %d, larger than the largest burst (256)", b, c)
		}
		if c := cap(tr.Samples); c > 16 {
			t.Errorf("after flush %d cap(tr.Samples) = %d, larger than the largest burst (16)", b, c)
		}
		if got := renderLog(hub); !bytes.Equal(got, want) {
			t.Fatalf("after flush %d the hub's records render to %d bytes, want the %d-byte rendering of bursts 0..%d", b, len(got), len(want), b)
		}
	}
}

// renderLog renders what the hub holds from offset zero, as a subscriber
// that is never made to wait receives it.
func renderLog(h *streamHub) []byte {
	rd := reader{h: h}
	var got []byte
	for {
		b, _ := rd.next(logChunk)
		if len(b) == 0 {
			return got
		}
		got = append(got, b...)
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

// TestStreamRecordRoundTrip drives events and samples through the
// publisher's records and serveStream's renderer: the stream must be their
// AppendJSON framing, byte for byte, written at most logChunk bytes at a
// time and at most firstWrite the first time. The inputs are a seeded
// random sweep plus the extremes: full-width masks, addresses and cycles,
// -1 unit, warp, pc and MSHR fields, the widest ints, every kind byte, and
// cycles that go backwards between records (a negative delta). Each flush
// holds only events or only samples, so the publisher keeps the order they
// were emitted in.
func TestStreamRecordRoundTrip(t *testing.T) {
	tr := obs.New(0)
	hub := newStreamHub()
	rd := hub.attach() // before the finish, which would cut an unwatched log
	pub := &publisher{hub: hub, tr: tr}
	var want []byte
	event := func(e obs.Event) {
		tr.Emit(e)
		want = append(e.AppendJSON(append(want, "event: obs\ndata: "...)), "\n\n"...)
	}
	sample := func(s obs.Sample) {
		tr.AddSample(s)
		want = append(s.AppendJSON(append(want, "event: sample\ndata: "...)), "\n\n"...)
	}

	for k := 0; k < 256; k++ { // the cycle steps back by one each time
		event(obs.Event{Cycle: math.MaxUint64 - uint64(k), Kind: obs.EventKind(k), Unit: -1, Warp: -1, PC: -1,
			Mask: math.MaxUint64, Mask2: math.MaxUint64, Addr: math.MaxUint64})
	}
	event(obs.Event{})
	event(obs.Event{Cycle: math.MaxUint64, Kind: 255, Unit: math.MinInt, Warp: math.MaxInt, PC: math.MinInt})
	pub.flush()
	sample(obs.Sample{WPU: -1, WSTOcc: -1, Resident: -1, SlotWaiters: -1, L1MSHR: -1, L2MSHR: -1})
	sample(obs.Sample{Cycle: math.MaxUint64, WPU: math.MinInt, Busy: math.MaxUint64, StallMem: math.MaxUint64,
		StallOther: math.MaxUint64, Issued: math.MaxUint64, WidthAccum: math.MaxUint64, WSTOcc: math.MaxInt,
		Resident: math.MinInt, SlotWaiters: math.MaxInt, L1MSHR: math.MinInt, L2MSHR: math.MaxInt})
	sample(obs.Sample{Cycle: 1})
	pub.flush()

	// 2000 random records in flushes of 1 to 32 of one kind.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; pub.flush() {
		events := rng.Intn(2) == 0
		for i := rng.Intn(32); i >= 0 && n < 2000; i, n = i-1, n+1 {
			if events {
				event(obs.Event{Cycle: rng.Uint64(), Kind: obs.EventKind(rng.Intn(256)), Unit: rng.Intn(64) - 1,
					Warp: rng.Intn(64) - 1, PC: int(rng.Int63()) - 1, Mask: rng.Uint64(),
					Mask2: rng.Uint64() >> uint(rng.Intn(64)), Addr: rng.Uint64()})
			} else {
				sample(obs.Sample{Cycle: rng.Uint64(), WPU: rng.Intn(8) - 1, Busy: rng.Uint64(),
					StallMem: rng.Uint64() >> uint(rng.Intn(64)), StallOther: rng.Uint64(), Issued: rng.Uint64(),
					WidthAccum: rng.Uint64(), WSTOcc: rng.Intn(64) - 1, Resident: rng.Intn(64),
					SlotWaiters: rng.Intn(64), L1MSHR: -rng.Intn(64), L2MSHR: int(rng.Int63())})
			}
		}
	}
	const payload = `{"status":"done"}`
	hub.finish([]byte(payload))
	want = append(want, doneHead+payload+"\n\n"...)

	chunks := len(hub.chunks)
	w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
	serveStream(w, httptest.NewRequest("GET", "/", nil), rd)
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("stream of %d bytes differs from the %d-byte framing at byte %d:\n got  ...%q\n want ...%q",
			len(got), len(want), i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
	if chunks < 2 || len(w.sizes) < 4 {
		t.Errorf("%d chunks and %d writes: the test does not cross a chunk", chunks, len(w.sizes))
	}
	if w.sizes[0] > firstWrite {
		t.Errorf("the first write is %d bytes, more than firstWrite", w.sizes[0])
	}
	for i, n := range w.sizes {
		if n > logChunk {
			t.Errorf("write %d is %d bytes, more than logChunk", i, n)
		}
	}
}

// TestStreamLogHeldBytes runs one traced job with one subscriber: once the
// subscriber has read the stream and left, the log holds only its done
// frame, and /metrics reports what the log holds.
func TestStreamLogHeldBytes(t *testing.T) {
	srv, _, ts := testServer(t, 1, false)
	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	done := doneFrameOf(t, streamRaw(t, ts, doc.ID))
	j, _ := srv.reg.get(doc.ID)
	held, _ := j.hub.held()
	if held != len(done) {
		t.Errorf("the log holds %d bytes after its subscriber left, want the %d-byte done frame", held, len(done))
	}
	if want := fmt.Sprintf("\ndwsimd_stream_log_bytes %d\n", held); !strings.Contains(metricsBody(t, ts), want) {
		t.Errorf("metrics do not report the %d bytes the log holds:\n%s", held, metricsBody(t, ts))
	}
}

// metricsBody fetches /metrics.
func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
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
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		tr.CloseIdleConnections()
		if runtime.NumGoroutine() <= g0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after disconnect: %d, baseline %d", runtime.NumGoroutine(), g0)
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

// doneFrameOf cuts the terminal frame off a complete stream.
func doneFrameOf(t *testing.T, stream []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(stream, []byte(doneHead))
	if i < 0 || !bytes.HasSuffix(stream, []byte("\n\n")) {
		t.Fatalf("stream of %d bytes does not end in a done frame", len(stream))
	}
	return stream[i:]
}

// heldServer assembles a one-worker server whose every run waits at its
// machine hook for a token on release, so that a test can attach a
// subscriber before the job it watches publishes or finishes.
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

// drain reads the rest of rd's log as serveStream does, waiting for each
// publish, and returns its wire bytes.
func drain(t *testing.T, rd *reader) []byte {
	t.Helper()
	var got []byte
	for {
		b, wait := rd.next(logChunk)
		got = append(got, b...)
		switch {
		case len(b) > 0:
		case wait == nil:
			return got
		default:
			select {
			case <-wait:
			case <-time.After(time.Minute):
				t.Fatalf("no publish for a minute after %d bytes", len(got))
			}
		}
	}
}

// TestStreamRetention runs five traced jobs, each read live by one
// subscriber attached before the run starts. Once that subscriber has
// left, each finished log holds only its done frame, and a late subscriber
// gets a replay that is the live stream byte for byte. /metrics then
// reports log bytes of the five done frames (a finished replay nobody reads
// is forgotten), five compacted logs and five replays.
func TestStreamRetention(t *testing.T) {
	srv, ts, release := heldServer(t)
	const jobs = 5
	var first []byte
	doneBytes := 0
	for i := 0; i < jobs; i++ {
		doc, resp := postJob(t, ts, tracedFilterBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		j, _ := srv.reg.get(doc.ID)
		rd := j.hub.attach()
		if rd == nil {
			t.Fatalf("job %s: the first subscriber found the log's start gone", doc.ID)
		}
		release <- struct{}{}
		live := drain(t, rd)
		j.hub.detach(rd)
		if first == nil {
			first = live
		} else if !bytes.Equal(live, first) { // same point, same bytes
			t.Fatalf("job %s streamed %d bytes live, the first job %d", doc.ID, len(live), len(first))
		}
		done := doneFrameOf(t, live)
		if held, cut := j.hub.held(); held != len(done) || !cut {
			t.Errorf("job %s: the finished log holds %d bytes (compacted %v), want only its %d-byte done frame", doc.ID, held, cut, len(done))
		}
		doneBytes += len(done)

		release <- struct{}{} // for the replay's run
		if late := streamRaw(t, ts, doc.ID); !bytes.Equal(late, live) {
			t.Errorf("job %s: the late subscriber's replay is %d bytes, the live stream %d", doc.ID, len(late), len(live))
		}
	}

	body := metricsBody(t, ts)
	for _, want := range []string{
		fmt.Sprintf("\ndwsimd_stream_log_bytes %d\n", doneBytes),
		fmt.Sprintf("\ndwsimd_stream_logs_compacted_total %d\n", jobs),
		fmt.Sprintf("\ndwsimd_stream_replays_total %d\n", jobs),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), body)
		}
	}
}

// TestStreamParkedSubscriber attaches a subscriber before its job runs and
// parks it in the second chunk of the finished log. While it pinned the
// start, the log held every record, at most a fifth of the wire bytes, in
// chunks packed to within a record of logChunk; parked, it pins its own
// chunk and the chunks before it are released; it still reads the whole
// stream; and once it leaves, the log holds only its done frame. The subscriber is driven by hand through the reader
// serveStream uses, so that where it parks does not depend on socket
// buffers.
func TestStreamParkedSubscriber(t *testing.T) {
	srv, ts, release := heldServer(t)
	doc, _ := postJob(t, ts, tracedFilterBody)
	j, _ := srv.reg.get(doc.ID)
	rd := j.hub.attach()
	release <- struct{}{}

	// A second subscriber reads the whole stream while the first pins its
	// start.
	full := streamRaw(t, ts, doc.ID)
	done := doneFrameOf(t, full)
	held, _ := j.hub.held()
	if recs := held - len(done); recs*5 > len(full) {
		t.Errorf("the log holds %d bytes of records for a %d-byte stream, want at most a fifth", recs, len(full))
	}
	if n := len(j.hub.chunks); n < 3 {
		t.Fatalf("a Filter log of %d chunks is too small for this test", n)
	}

	// The first chunk is complete, so a read returns all of it: as many
	// records as fit in logChunk bytes, which leaves less than one record
	// unused.
	if recs, _, _ := j.hub.read(rd); len(recs) > logChunk || len(recs) <= logChunk-maxRecord {
		t.Fatalf("first read returned %d bytes of records, want one whole chunk of at most %d", len(recs), logChunk)
	}
	var got []byte
	for rd.pin < logChunk {
		b, _ := rd.next(logChunk)
		got = append(got, b...)
	}
	j.hub.mu.Lock()
	chunks, base := len(j.hub.chunks), j.hub.starts[0]
	j.hub.mu.Unlock()
	if chunks > 2 || base == 0 || base > rd.pin {
		t.Errorf("parked at offset %d the log holds %d chunks from offset %d, want at most 2 from the parked reader's", rd.pin, chunks, base)
	}

	if got = append(got, drain(t, rd)...); !bytes.Equal(got, full) {
		t.Errorf("parked subscriber read %d bytes, the full stream is %d", len(got), len(full))
	}
	j.hub.detach(rd)
	if held, _ := j.hub.held(); held != len(done) {
		t.Errorf("log holds %d bytes after its last subscriber left, want the %d-byte done frame", held, len(done))
	}
}

// TestStreamReplayAdmission asks for the stream of a finished, unwatched
// traced job, which needs a replay, while a held worker's backlog is full:
// it is refused like a submission, 429 with Retry-After, and registers
// nothing. After Close the same request is 503.
func TestStreamReplayAdmission(t *testing.T) {
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
		t.Errorf("the refused replay changed the job list:\n%+v\nvs\n%+v", after, before)
	}
	if _, _, replays := srv.reg.streamLogStats(); replays != 0 {
		t.Errorf("%d replays counted, want 0: the one asked for was refused", replays)
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
		t.Errorf("stream needing a replay after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestStreamReplayShared asks twice for the stream of a finished, unwatched
// traced job while the replay the first request admitted waits for the
// worker: the second subscriber joins that replay, so the two cost one run,
// and both read the live stream. Once both have left, a third subscriber
// gets a new replay; once it has left too, the job keeps no replay and its
// log holds only the done frame.
func TestStreamReplayShared(t *testing.T) {
	srv, ts, release := heldServer(t)
	doc, _ := postJob(t, ts, tracedFilterBody)
	release <- struct{}{}
	live := streamRaw(t, ts, doc.ID)

	// The response's headers are flushed before the subscriber first waits,
	// so each Get returns while the replay is held.
	var bodies [2]io.ReadCloser
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscriber %d: status %d", i+1, resp.StatusCode)
		}
		bodies[i] = resp.Body
	}
	if _, _, n := srv.reg.streamLogStats(); n != 1 {
		t.Fatalf("%d replays admitted for two subscribers of a held replay, want 1", n)
	}
	release <- struct{}{}
	for i, b := range bodies {
		if got, err := io.ReadAll(b); err != nil || !bytes.Equal(got, live) {
			t.Errorf("subscriber %d read %d bytes (%v) of the shared replay, the live stream is %d", i+1, len(got), err, len(live))
		}
	}

	release <- struct{}{}
	if late := streamRaw(t, ts, doc.ID); !bytes.Equal(late, live) {
		t.Errorf("the third subscriber's replay is %d bytes, the live stream %d", len(late), len(live))
	}
	held, _, n := srv.reg.streamLogStats()
	if n != 2 {
		t.Errorf("%d replays admitted after the shared one finished, want 2", n)
	}
	if j, _ := srv.reg.get(doc.ID); len(j.replays) != 0 {
		t.Errorf("the job keeps %d finished replays nobody reads", len(j.replays))
	}
	if done := doneFrameOf(t, live); held != len(done) {
		t.Errorf("the logs hold %d bytes, want only the job's %d-byte done frame", held, len(done))
	}
}

// TestStreamReplayDisconnect hangs up in the middle of a replay, in the
// shape of TestStreamDisconnect: once the replay has run out, no goroutine
// outlives the subscriber, and the session's cached result for the point
// is the one it held before.
func TestStreamReplayDisconnect(t *testing.T) {
	srv, session, ts := testServer(t, 1, false)
	g0 := runtime.NumGoroutine()

	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	streamRaw(t, ts, doc.ID) // once it has been read, the log is its done frame
	knobs := WireKnobs{Scheme: "DWS.ReviveSplit"}.Knobs()
	cached, err := session.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}
	_, _, replays := srv.reg.streamLogStats()

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
	if _, _, n := srv.reg.streamLogStats(); n != replays+1 {
		t.Fatalf("%d replays counted after the late subscriber, want %d", n, replays+1)
	}

	// One worker runs jobs in order, so once a later job is done the
	// replay has run out.
	after, _ := postJob(t, ts, runFilterBody)
	waitJob(t, ts, after.ID)

	r, err := session.Run("Filter", knobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderResultDoc(r, knobs), RenderResultDoc(cached, knobs); !bytes.Equal(got, want) {
		t.Errorf("the replay changed the session's cached result:\n--- after ---\n%s\n--- before ---\n%s", got, want)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		tr.CloseIdleConnections()
		if runtime.NumGoroutine() <= g0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after a disconnect mid-replay: %d, baseline %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamReplayMidRun asks for the stream of a running job whose log
// has already lost its start, to a subscriber that attached and left: the
// request gets a replay, queued behind the job, and its bytes are the
// stream a later replay of the finished job reads. The job is held inside
// its run, by an observer, from the moment its first chunk is dropped
// until the replay has been admitted.
func TestStreamReplayMidRun(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session})
	srv.every = 256 // publish often enough that chunks fill mid-run
	var (
		watched         atomic.Pointer[streamHub]
		trimmed, resume = make(chan struct{}), make(chan struct{})
		hold, unhold    sync.Once
	)
	release := make(chan struct{}, 1)
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		<-release
		sys.Observe(256, func(uint64) {
			if h := watched.Load(); h != nil {
				h.mu.Lock()
				gone := len(h.starts) > 0 && h.starts[0] > 0
				h.mu.Unlock()
				if gone {
					hold.Do(func() { close(trimmed); <-resume })
				}
			}
		})
		return inner(sys)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resumeOnce := func() { unhold.Do(func() { close(resume) }) }
	t.Cleanup(func() { close(release); resumeOnce() }) // the first cleanup: no run waits for ever

	doc, _ := postJob(t, ts, tracedFilterBody)
	j, _ := srv.reg.get(doc.ID)
	j.hub.detach(j.hub.attach()) // a subscriber came and went: trimming has begun
	watched.Store(j.hub)
	release <- struct{}{}
	select {
	case <-trimmed:
	case <-time.After(time.Minute):
		t.Fatal("the running job's log never lost its start")
	}

	// The response's headers are flushed before the subscriber first waits,
	// so Get returns while the job is still held.
	release <- struct{}{} // for the replay's run
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream of the running job: status %d", resp.StatusCode)
	}
	if _, _, replays := srv.reg.streamLogStats(); replays != 1 {
		t.Fatalf("%d replays counted while the job runs, want 1", replays)
	}
	resumeOnce()
	mid, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	if done := waitJob(t, ts, doc.ID); done.Status != StatusDone {
		t.Fatalf("job after a mid-run replay: %+v", done)
	}
	release <- struct{}{}
	if late := streamRaw(t, ts, doc.ID); !bytes.Equal(mid, late) {
		t.Errorf("the mid-run replay read %d bytes, a replay of the finished job %d", len(mid), len(late))
	}
}
