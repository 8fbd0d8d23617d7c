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
	hub := newStreamHub(&streamLogs{budget: streamLogBudget})
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
	hub := newStreamHub(&streamLogs{budget: streamLogBudget})
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

	w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
	serveStream(w, httptest.NewRequest("GET", "/", nil), hub)
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("stream of %d bytes differs from the %d-byte framing at byte %d:\n got  ...%q\n want ...%q",
			len(got), len(want), i, got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	}
	if len(hub.chunks) < 2 || len(w.sizes) < 4 {
		t.Errorf("%d chunks and %d writes: the test does not cross a chunk", len(hub.chunks), len(w.sizes))
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

// TestStreamLogHeldBytes runs one traced job: its log must hold at most a
// fifth of the bytes its subscriber read, not counting the done frame, and
// /metrics must report what the log holds.
func TestStreamLogHeldBytes(t *testing.T) {
	srv, _, ts := testServer(t, 1, false)
	doc, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	wire := streamRaw(t, ts, doc.ID)
	done := doneFrameOf(t, wire)
	j, _ := srv.reg.get(doc.ID)
	held := j.hub.bytes()
	if recs := held - len(done); recs*5 > len(wire) {
		t.Errorf("the log holds %d bytes of records for a %d-byte stream, want at most a fifth", recs, len(wire))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ndwsimd_stream_log_bytes %d\n", held); !strings.Contains(string(body), want) {
		t.Errorf("metrics do not report the %d bytes the log holds:\n%s", held, body)
	}
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

// waitCompacted waits until n logs have been compacted and returns the
// record bytes finished logs then hold. It has to wait because a job reads "done"
// just before its done frame is published and its log charged.
func waitCompacted(t *testing.T, srv *Server, n int) (held int) {
	t.Helper()
	l := &srv.reg.logs
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		held, compacted := l.held, l.compacted
		l.mu.Unlock()
		if compacted == n {
			return held
		}
		if compacted > n || time.Now().After(deadline) {
			t.Fatalf("%d logs compacted, want %d", compacted, n)
		}
	}
}

// TestStreamRetention runs more traced jobs than the budget can hold:
// what finished logs retain stays under the budget, the oldest are cut to
// their done frame — which is all a late subscriber to them receives, and
// is the frame the live subscriber saw — and the newest still replays in
// full, byte for byte.
func TestStreamRetention(t *testing.T) {
	srv, _, ts := testServer(t, 1, false)

	first, resp := postJob(t, ts, tracedFilterBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	live := streamRaw(t, ts, first.ID)
	done := doneFrameOf(t, live)
	j, _ := srv.reg.get(first.ID)
	size := j.hub.bytes() - len(done) // the record bytes one log holds
	if size < 2*logChunk {
		t.Fatalf("a Filter log of %d bytes is too small for this test", size)
	}

	// Room for two and a half logs; five will finish.
	const jobs = 5
	budget := 5 * size / 2
	srv.reg.logs.mu.Lock()
	srv.reg.logs.budget = budget
	srv.reg.logs.mu.Unlock()
	last := first
	for i := 1; i < jobs; i++ {
		last, _ = postJob(t, ts, tracedFilterBody)
		if doc := waitJob(t, ts, last.ID); doc.Status != StatusDone {
			t.Fatalf("job %s: %+v", last.ID, doc)
		}
	}

	held := waitCompacted(t, srv, jobs-2)
	if held > budget {
		t.Errorf("finished logs hold %d bytes, budget %d", held, budget)
	}
	if want := 2 * size; held != want {
		t.Errorf("finished logs hold %d bytes, want %d (the records of two logs)", held, want)
	}
	if bytes, _ := srv.reg.streamLogStats(); bytes != held+jobs*len(done) {
		t.Errorf("dwsimd_stream_log_bytes would read %d with nothing in flight, want the %d the budget holds and %d done frames", bytes, held, jobs)
	}

	if got := streamRaw(t, ts, first.ID); !bytes.Equal(got, done) {
		t.Errorf("late subscriber to a compacted log got %d bytes, want exactly the %d-byte done frame the live subscriber saw", len(got), len(done))
	}
	// Same point, so the same bytes as the first job's live stream.
	if got := streamRaw(t, ts, last.ID); !bytes.Equal(got, live) {
		t.Errorf("the newest log replayed %d bytes, want the full %d", len(got), len(live))
	}
}

// TestStreamParkedSubscriber attaches a subscriber that reads one chunk's
// worth and then waits while later jobs finish over a budget of zero: its
// log must stay whole under it, and be compacted the moment it leaves. The
// subscriber is driven by hand through the reader serveStream uses, so
// that where it is parked does not depend on socket buffers.
func TestStreamParkedSubscriber(t *testing.T) {
	session := report.NewSession(report.WithJobs(1))
	srv := New(Config{Session: session, Workers: 1})
	srv.reg.logs.budget = 0
	// Hold the first run at its machine hook until the subscriber is
	// attached, so the job cannot finish (and be compacted) first.
	attached := make(chan struct{})
	inner := session.OnSystem
	session.OnSystem = func(sys *sim.System) func() {
		<-attached
		return inner(sys)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	doc, _ := postJob(t, ts, tracedFilterBody)
	j, _ := srv.reg.get(doc.ID)
	j.hub.attach()
	close(attached)

	// A second subscriber comes and goes; the parked one reads a chunk; two
	// more jobs finish with no subscriber, which is all that is compacted.
	full := streamRaw(t, ts, doc.ID)
	// The first chunk is complete, so a read returns all of it: as many
	// records as fit in logChunk bytes, which leaves less than one record
	// unused.
	if recs, _, _ := j.hub.read(0); len(recs) > logChunk || len(recs) <= logChunk-maxRecord {
		t.Fatalf("first read returned %d bytes of records, want one whole chunk of at most %d", len(recs), logChunk)
	}
	rd := reader{h: j.hub}
	parked, _ := rd.next(logChunk)
	got := append([]byte(nil), parked...)
	for i := 0; i < 2; i++ {
		d, _ := postJob(t, ts, tracedFilterBody)
		waitJob(t, ts, d.ID)
	}
	waitCompacted(t, srv, 2)

	for {
		b, wait := rd.next(logChunk)
		if len(b) == 0 {
			if wait != nil {
				t.Fatal("a finished log asked its subscriber to wait")
			}
			break
		}
		got = append(got, b...)
	}
	if !bytes.Equal(got, full) {
		t.Errorf("parked subscriber read %d bytes, the full stream is %d", len(got), len(full))
	}

	j.hub.detach()
	done := doneFrameOf(t, full)
	if n := j.hub.bytes(); n != len(done) {
		t.Errorf("log holds %d bytes after its last subscriber left, want the %d-byte done frame", n, len(done))
	}
	if replay := streamRaw(t, ts, doc.ID); !bytes.Equal(replay, done) {
		t.Errorf("replay of the compacted log is %d bytes, want exactly the done frame", len(replay))
	}
}
