package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Every request body the benchmark sends to the daemon is a data file.
//
//go:embed jobs/*.json
var jobFS embed.FS

// jobBody is one request body and the point it names.
type jobBody struct {
	Name  string // file name without .json
	Body  []byte
	Bench string
	DWS   bool
	L2Lat int
	Trace bool
}

// jobBodies returns the embedded bodies in file-name order.
func jobBodies() []jobBody {
	entries, err := jobFS.ReadDir("jobs")
	if err != nil {
		panic(err)
	}
	var out []jobBody
	for _, e := range entries {
		b, err := jobFS.ReadFile("jobs/" + e.Name())
		if err != nil {
			panic(err)
		}
		var req struct {
			Bench string `json:"bench"`
			Knobs struct {
				Scheme string `json:"scheme"`
				L2Lat  int    `json:"l2lat"`
			} `json:"knobs"`
			Trace bool `json:"trace"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			panic(fmt.Sprintf("jobs/%s: %v", e.Name(), err))
		}
		out = append(out, jobBody{strings.TrimSuffix(e.Name(), ".json"), b,
			req.Bench, req.Knobs.Scheme == schemeDWS, req.Knobs.L2Lat, req.Trace})
	}
	return out
}

// daemon is one dwsimd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *lockedBuffer
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// buildDaemon compiles cmd/dwsimd of the checkout into .bench_build/,
// before any clock starts.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "dwsimd")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/dwsimd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dwsimd: %v\n%s", err, out)
	}
	return bin, nil
}

var servingOn = regexp.MustCompile(`serving on (http://[0-9.:]+)/`)

// startDaemon launches dwsimd on a free loopback port over an empty store
// and returns once /healthz answers, with the time that took.
func startDaemon(bin, cacheDir string, workers int, hc *http.Client) (*daemon, time.Duration, error) {
	if err := checkParallel(workers); err != nil {
		return nil, 0, err
	}
	d := &daemon{stderr: &lockedBuffer{}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-j", strconv.Itoa(workers), "-cachedir", cacheDir)
	d.cmd.Stderr = d.stderr
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(parallelism()))
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	for time.Since(t0) < 20*time.Second {
		if m := servingOn.FindStringSubmatch(d.stderr.String()); m != nil {
			d.base = m[1]
			if resp, err := hc.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0), nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("dwsimd did not come up: %s", d.stderr.String())
}

// stop kills the child and waits for it; the daemon has no shutdown call.
func (d *daemon) stop() (peakRSS float64) {
	peakRSS = peakRSSMB(d.cmd.Process.Pid)
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	d.cmd.Wait()         //nolint:errcheck // killed: the status is the signal
	return peakRSS
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	key     string
	doc     []byte // the result document (from /v1/results, or the done frame)
	latency timed  // submit → result; for a traced job submit → done frame
	polls   int
	stream  streamOutcome
}

type streamOutcome struct {
	frames, obs, samples, done int
	doneLast                   bool
	bytes                      int
	firstFrame                 time.Duration
	wall                       timed // request sent → stream closed
}

// client is one closed-loop caller: it submits a job and waits for its
// result before sending the next.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
	lane int
}

func (c *client) expect(resp *http.Response, err error, want int) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, fmt.Errorf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
	}
	return b, nil
}

type jobDoc struct {
	ID        string `json:"id"`
	StreamURL string `json:"stream_url"`
	Points    []struct {
		ResultKey string `json:"result_key"`
	} `json:"points"`
}

func (c *client) submit(op span, body []byte) (jobDoc, error) {
	sp := c.rec.begin(op, "serve.submit")
	defer c.rec.end(sp)
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	b, err := c.expect(resp, err, http.StatusAccepted)
	if err != nil {
		return jobDoc{}, err
	}
	var doc jobDoc
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Points) != 1 {
		return jobDoc{}, fmt.Errorf("job document %q: %v", b, err)
	}
	return doc, nil
}

// job runs one untraced job: submit, then poll the result URL every
// millisecond until it answers 200.
func (c *client) job(body []byte) (jobOutcome, error) {
	op := c.rec.beginOp("serve.job", c.lane)
	defer c.rec.end(op)
	t0 := time.Now()
	doc, err := c.submit(op, body)
	if err != nil {
		return jobOutcome{}, err
	}
	out := jobOutcome{key: doc.Points[0].ResultKey}
	wait := c.rec.begin(op, "serve.wait")
	defer c.rec.end(wait)
	for {
		sp := c.rec.begin(wait, "serve.poll")
		resp, err := c.hc.Get(c.base + "/v1/results/" + out.key)
		if err == nil && resp.StatusCode == http.StatusNotFound {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			c.rec.end(sp)
			if !bytes.Contains(b, []byte(`"pending"`)) {
				return out, fmt.Errorf("result %s: 404 but not pending: %s", out.key, b)
			}
			if out.polls++; time.Since(t0) > 60*time.Second {
				return out, fmt.Errorf("result %s still pending after 60 s", out.key)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		out.doc, err = c.expect(resp, err, http.StatusOK)
		c.rec.retag(sp, "serve.result_get", op)
		c.rec.end(sp)
		out.latency = since(t0)
		return out, err
	}
}

// tracedJob runs one traced job with one SSE subscriber, read to the end
// of the stream.
func (c *client) tracedJob(body []byte) (jobOutcome, error) {
	op := c.rec.beginOp("serve.job", c.lane)
	defer c.rec.end(op)
	t0 := time.Now()
	doc, err := c.submit(op, body)
	if err != nil {
		return jobOutcome{}, err
	}
	out := jobOutcome{key: doc.Points[0].ResultKey}
	sp := c.rec.begin(op, "serve.stream")
	defer c.rec.end(sp)
	t1 := time.Now()
	resp, err := c.hc.Get(c.base + doc.StreamURL)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET %s: status %d", doc.StreamURL, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	s := &out.stream
	var event string
	for {
		line, err := br.ReadSlice('\n')
		s.bytes += len(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")):
			if event == "done" {
				out.doc = append([]byte(nil), bytes.TrimSpace(line[len("data: "):])...)
			}
		case len(bytes.TrimSpace(line)) == 0: // a blank line ends the frame
			if s.frames++; s.frames == 1 {
				s.firstFrame = time.Since(t1)
			}
			switch event {
			case "obs":
				s.obs++
			case "sample":
				s.samples++
			case "done":
				s.done++
			}
			s.doneLast = event == "done"
		}
	}
	s.wall = since(t1)
	out.latency = since(t0)
	return out, nil
}

// scrape reads /metrics into name{labels} → value.
func scrape(hc *http.Client, base string) (map[string]float64, time.Duration, error) {
	t0 := time.Now()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	took := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, took, nil
}

const (
	mJobsDone   = `dwsimd_jobs{state="done"}`
	mJobsFailed = `dwsimd_jobs{state="failed"}`
	mSessMem    = `dwsimd_session_requests_total{source="mem"}`
	mSessDisk   = `dwsimd_session_requests_total{source="disk"}`
	mSessSim    = `dwsimd_session_requests_total{source="simulated"}`
)

// fanOut runs the untraced bodies in the given order over the run's
// closed-loop clients pulling from one queue (rec is nil for an unrecorded
// batch), and returns the outcomes in that order and the wall time of the
// whole batch.
func (s *serveRun) fanOut(d *daemon, rec *recorder, order []int) ([]jobOutcome, timed) {
	outs := make([]jobOutcome, len(order))
	next := make(chan int, len(order)) // sized to the batch: filled before the clients start
	for slot := range order {
		next <- slot
	}
	close(next)
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for lane := 0; lane < s.par; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := &client{base: d.base, hc: s.hc, rec: rec, lane: lane}
			for slot := range next {
				b := s.untraced[order[slot]]
				out, err := c.job(b.Body)
				mu.Lock()
				s.attempted++
				if err != nil {
					s.failf("job %s: %v", b.Name, err)
				}
				mu.Unlock()
				outs[slot] = out
			}
		}(lane)
	}
	wg.Wait()
	return outs, since(t0)
}

// serveRun is the state of one serve_jobs run.
type serveRun struct {
	*run
	bin              string
	hc               *http.Client
	untraced, traced []jobBody

	daemons int
	ready   []float64         // ms from exec to /healthz, per daemon started
	peakRSS float64           // the largest high-water mark of any daemon
	docs    map[string][]byte // result key → the first document fetched for it
	streams map[string]streamOutcome

	// traced phase
	sumPlain, sumTraced time.Duration
	streamWall          []timed
	frames, streamBytes int
	firstFrame          []float64

	// cold and warm rounds
	coldLat                         [][]timed // [untraced body][round]
	warmLat, plainWarmLat, coldWall []timed   // all converted to reference-box ms in finish
	polls                           int
	warmAllocs, warmBytes           uint64
	last                            map[string]float64 // the final /metrics scrape
	scrapeMs                        float64
	floor                           []float64
}

func (s *serveRun) start() (*daemon, error) {
	s.daemons++
	d, took, err := startDaemon(s.bin, filepath.Join(s.tmp, fmt.Sprintf("store-%d", s.daemons)), s.par, s.hc)
	if err == nil {
		s.ready = append(s.ready, ms(took))
	}
	return d, err
}

func (s *serveRun) stop(d *daemon) { s.peakRSS = max(s.peakRSS, d.stop()) }

// keep remembers the first document fetched for a result key and fails
// any later fetch (cold, warm, another daemon) that differs from it.
func (s *serveRun) keep(what string, out jobOutcome) {
	if out.doc == nil {
		return
	}
	if first, seen := s.docs[out.key]; !seen {
		s.docs[out.key] = out.doc
	} else if !bytes.Equal(first, out.doc) {
		s.failf("%s: result %s differs from the first fetch", what, out.key)
	}
}

// runServe is serve_jobs. Traced phase first (fixed work: every DWS point
// once untraced and once traced, one client, fresh daemon), then rounds
// of a cold and a warm phase (two clients, fresh daemon and empty store
// per round) until the time is up, then the check of every document
// against an in-process run.
func runServe(r *run) error {
	bin, err := buildDaemon(r.cfg.Root)
	if err != nil {
		return err
	}
	if err := checkParallel(r.par); err != nil {
		return err
	}
	s := &serveRun{run: r, bin: bin, docs: map[string][]byte{}, streams: map[string]streamOutcome{},
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.NumCPU(), MaxConnsPerHost: runtime.NumCPU(),
		}}}
	defer s.hc.CloseIdleConnections()
	for _, b := range jobBodies() {
		if r.cfg.Smoke && b.L2Lat != 30 {
			continue
		}
		if b.Trace {
			s.traced = append(s.traced, b)
		} else {
			s.untraced = append(s.untraced, b)
		}
	}

	// Set-up is the daemon start: exec → /healthz answers.
	err = r.timeSetup(func() error {
		d, err := s.start()
		if err == nil {
			d.stop()
		}
		return err
	})
	if err != nil {
		return err
	}

	phases := func() error {
		if err := s.tracedPhase(); err != nil {
			return err
		}
		start := time.Now()
		for {
			if err := s.round(); err != nil {
				return err
			}
			if time.Since(start) >= r.budget()-s.sumPlain-s.sumTraced {
				return nil
			}
		}
	}
	if r.cfg.Trace {
		// The profile is of this process, the client: the daemon is a
		// separate program the benchmark only sees from outside.
		err = r.profiled(phases)
	} else {
		err = phases()
	}
	if err != nil {
		return err
	}
	return s.finish()
}

// tracedPhase runs, on a fresh daemon with one client, every DWS point
// as an untraced cold job and then as a traced job whose SSE stream is
// read to its done frame.
func (s *serveRun) tracedPhase() error {
	d, err := s.start()
	if err != nil {
		return err
	}
	defer s.stop(d)
	defer s.sp.calibrate()
	c := &client{base: d.base, hc: s.hc, rec: s.rec}
	plainOf := map[string]jobBody{}
	for _, b := range s.untraced {
		if b.DWS {
			plainOf[fmt.Sprint(b.Bench, b.L2Lat)] = b
		}
	}
	for _, i := range s.rng.Perm(len(s.traced)) {
		tb := s.traced[i]
		pb := plainOf[fmt.Sprint(tb.Bench, tb.L2Lat)]
		s.attempted += 2
		s.sp.probe()
		plain, err := c.job(pb.Body)
		if err != nil {
			s.failf("job %s: %v", pb.Name, err)
			continue
		}
		s.keep("untraced", plain)
		tr, err := c.tracedJob(tb.Body)
		if err != nil {
			s.failf("job %s: %v", tb.Name, err)
			continue
		}
		if !bytes.Equal(compactJSON(tr.doc), compactJSON(plain.doc)) {
			s.failf("job %s: the done frame's document differs from /v1/results", tb.Name)
		}
		st := tr.stream
		if st.done != 1 || !st.doneLast || st.frames != st.obs+st.samples+1 {
			s.failf("job %s: stream of %d frames (%d obs, %d sample, %d done, done last: %v)",
				tb.Name, st.frames, st.obs, st.samples, st.done, st.doneLast)
		}
		s.streams[tb.Name] = st
		s.sumPlain += plain.latency.d
		s.sumTraced += tr.latency.d
		s.streamWall = append(s.streamWall, st.wall)
		s.frames += st.frames
		s.streamBytes += st.bytes
		s.firstFrame = append(s.firstFrame, ms(st.firstFrame))
	}
	return nil
}

// round is one cold and one warm phase on a fresh daemon over an empty
// store: every point once, then twelve resubmissions of every point.
func (s *serveRun) round() error {
	d, err := s.start()
	if err != nil {
		return err
	}
	defer s.stop(d)
	n := len(s.untraced)

	s.sp.calibrate()
	order := s.rng.Perm(n)
	outs, wall := s.fanOut(d, s.rec, order)
	s.sp.calibrate()
	s.coldWall = append(s.coldWall, wall)
	if s.coldLat == nil {
		s.coldLat = make([][]timed, n)
	}
	for slot, o := range outs {
		s.coldLat[order[slot]] = append(s.coldLat[order[slot]], o.latency)
		s.polls += o.polls
		s.keep("cold", o)
	}
	afterCold, _, err := scrape(s.hc, d.base)
	if err != nil {
		return err
	}
	if afterCold[mSessSim] != float64(n) {
		s.failf("cold phase: daemon simulated %v points, want %d", afterCold[mSessSim], n)
	}

	warmPasses := 12
	if s.cfg.Smoke {
		warmPasses = 1
	}
	// In the traced run every third warm pass goes unrecorded: the same
	// daemon in the same state, so the two sets of latencies differ by the
	// span recorder alone (trace.overhead_ratio).
	for p := 0; p < warmPasses; p++ {
		rec := s.rec
		plain := rec != nil && p%3 == 0
		if plain {
			rec = nil
		}
		s.sp.probe()
		before := markMem()
		outs, _ = s.fanOut(d, rec, s.rng.Perm(n))
		after := markMem()
		for _, o := range outs {
			if plain {
				s.plainWarmLat = append(s.plainWarmLat, o.latency)
				continue
			}
			s.warmLat = append(s.warmLat, o.latency)
			s.keep("warm", o)
		}
		s.warmAllocs += after.mallocs - before.mallocs
		s.warmBytes += after.bytes - before.bytes
	}
	s.sp.calibrate()
	jobs := n * (1 + warmPasses)

	var took time.Duration
	s.last, took, err = scrape(s.hc, d.base)
	if err != nil {
		return err
	}
	s.scrapeMs = ms(took)
	if s.last[mSessSim] != afterCold[mSessSim] {
		s.failf("warm phase simulated: session_simulated went %v → %v", afterCold[mSessSim], s.last[mSessSim])
	}
	if s.last[mJobsFailed] != 0 || s.last[mJobsDone] != float64(jobs) {
		s.failf("daemon reports %v jobs done, %v failed; want %d, 0", s.last[mJobsDone], s.last[mJobsFailed], jobs)
	}
	if len(s.floor) == 0 { // the HTTP round-trip floor, once
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			resp, err := s.hc.Get(d.base + "/healthz")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // a health reply is a few bytes
			resp.Body.Close()
			s.floor = append(s.floor, us(time.Since(t0)))
		}
	}
	return nil
}

// finish checks every document against an in-process run and derives the
// metrics.
func (s *serveRun) finish() error {
	ref, err := s.checkDocs()
	if err != nil {
		return err
	}
	var cycles, threadOps uint64
	for _, st := range ref {
		cycles += st.Cycles
		threadOps += st.ThreadOps
	}
	var coldLat []float64
	for _, rounds := range s.coldLat {
		coldLat = append(coldLat, s.sp.refMsAll(rounds)...)
	}
	warmLat := s.sp.refMsAll(s.warmLat)
	warm, cold := len(warmLat), len(coldLat)
	warmJobs := float64(warm + len(s.plainWarmLat))
	coldS := median(s.sp.refMsAll(s.coldWall)) / 1e3
	s.set("op_p50_ms", pointMedian(s.coldLat, s.sp.refMsAll), cold)
	s.set("host.op_p50_wall_ms", pointMedian(s.coldLat, wallMs), cold)
	s.set("sim_mcycles_per_s", float64(cycles)/1e6/coldS, len(s.coldWall))
	s.set("sim_mthreadops_per_s", float64(threadOps)/1e6/coldS, len(s.coldWall))
	// The daemon's allocations cannot be seen from outside; these are the
	// client side of a warm job (one POST, one GET).
	s.set("allocs_per_sim", float64(s.warmAllocs)/warmJobs, warm)
	s.set("alloc_mb_per_sim", float64(s.warmBytes)/1e6/warmJobs, warm)
	s.set("peak_rss_mb", s.peakRSS, s.daemons)

	if n := len(s.firstFrame); n > 0 {
		s.set("serve.traced_over_untraced", float64(s.sumTraced)/float64(s.sumPlain), n)
		var streamMs float64
		for _, v := range s.sp.refMsAll(s.streamWall) {
			streamMs += v
		}
		s.set("serve.stream_kevents_per_s", float64(s.frames)/streamMs, n) // frames/ms = kframes/s
		s.set("serve.first_frame_ms", median(s.firstFrame), n)
		s.set("serve.stream_frames", float64(s.frames), n)
		s.set("serve.stream_mb", float64(s.streamBytes)/1e6, n)
	}
	s.set("serve.cold_result_p50_ms", median(coldLat), cold)
	s.set("serve.warm_result_p50_ms", median(warmLat), warm)
	s.set("serve.warm_result_p90_ms", percentile(warmLat, 90), warm)
	if tailPercentile(warm) >= 98 {
		s.set("serve.warm_result_p98_ms", percentile(warmLat, 98), warm)
	}
	s.set("serve.polls_per_job", float64(s.polls)/float64(cold), cold)
	s.set("serve.daemon_ready_ms", median(s.ready), len(s.ready))
	s.set("serve.http_floor_us", median(s.floor), len(s.floor))
	s.set("serve.metrics_scrape_ms", s.scrapeMs, 1)
	s.set("serve.daemon_peak_rss_mb", s.peakRSS, s.daemons)
	s.set("serve.jobs_done", s.last[mJobsDone], 1)
	s.set("serve.session_mem", s.last[mSessMem], 1)
	s.set("serve.session_disk", s.last[mSessDisk], 1)
	s.set("serve.session_simulated", s.last[mSessSim], 1)
	s.setDigest(ref)

	if !s.cfg.Trace {
		return nil
	}
	s.set("trace.overhead_ratio", median(warmLat)/median(s.sp.refMsAll(s.plainWarmLat)), warm)
	for span, metric := range map[string]string{"serve.submit": "serve.submit_ms", "serve.result_get": "serve.result_get_ms"} {
		d := s.rec.durationsMs(span)
		s.set(metric, median(d), len(d))
	}
	s.setSimCounts(ref)
	return s.probeLayers(allKernels)
}

// checkDocs simulates every point in process and requires the daemon's
// documents to be the same bytes (so the same cycles and every other
// statistic), and each traced stream to have carried exactly the events
// and samples an in-process traced run of the point produces.
func (s *serveRun) checkDocs() (map[string]SimStats, error) {
	ref := map[string]SimStats{}
	var mu sync.Mutex // guards ref, firstErr and the run's tallies
	var firstErr error
	var tasks []func()
	for _, b := range s.untraced {
		tasks = append(tasks, func() {
			key, want, st, err := referenceDoc(b.Body)
			mu.Lock()
			defer mu.Unlock()
			s.attempted++
			switch got, fetched := s.docs[key]; {
			case err != nil:
				firstErr = err
			case !fetched:
				s.failf("job %s: no document was fetched for %s", b.Name, key)
			case !bytes.Equal(got, want):
				s.failf("job %s: daemon document differs from the in-process run", b.Name)
			}
			ref[b.Name] = st
		})
	}
	for _, tb := range s.traced {
		st, ok := s.streams[tb.Name]
		if !ok {
			continue // the job already failed
		}
		tasks = append(tasks, func() {
			o, err := runObs(Point{Bench: tb.Bench, Scheme: schemeDWS, L2Lat: tb.L2Lat})
			mu.Lock()
			defer mu.Unlock()
			s.attempted++
			if err != nil {
				firstErr = err
			} else if st.obs != o.Events || st.samples != o.Samples {
				s.failf("job %s: streamed %d events + %d samples, the in-process trace has %d + %d",
					tb.Name, st.obs, st.samples, o.Events, o.Samples)
			}
		})
	}
	next := make(chan func(), len(tasks)) // sized to the batch: filled before the workers start
	for _, t := range tasks {
		next <- t
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < s.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				t()
			}
		}()
	}
	wg.Wait()
	return ref, firstErr
}

// compactJSON strips insignificant whitespace, so the indented document
// of /v1/results and the one-line payload of a done frame compare equal.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}
