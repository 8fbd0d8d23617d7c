package main

// adapter.go is the only file of the benchmark that imports the program
// under test: every call into repro/internal/... is made here, so the API
// surface the benchmark pins fits on one screen (bench/README.md lists it).
// Nothing below returns an internal type; the rest of the benchmark sees
// plain numbers and bytes.

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wpu"
)

const (
	schemeConv = string(wpu.SchemeConv)
	schemeDWS  = string(wpu.SchemeRevive)
)

// Point names one simulation: kernel × scheme at an input scale and an L2
// lookup latency (0 = the Table 3 default, 30 cycles).
type Point struct {
	Bench  string
	Scheme string
	Scale  int
	L2Lat  int
}

func (p Point) String() string {
	return fmt.Sprintf("%s/%s/x%d/l2lat%d", p.Bench, p.Scheme, max(p.Scale, 1), p.knobs().L2Lat)
}

func (p Point) knobs() report.Knobs {
	k := report.DefaultKnobs(wpu.Scheme(p.Scheme))
	if p.Scale > 1 {
		k.Scale = p.Scale
	}
	if p.L2Lat > 0 {
		k.L2Lat = p.L2Lat
	}
	return k
}

// SimStats are the simulated statistics of one point that the benchmark
// checks for exact repetition, digests, and reports as per-layer counts.
type SimStats struct {
	Cycles, Issued, ThreadOps                   uint64
	Buckets                                     [8]uint64 // wpu.CycleBucketLabels order
	L1Accesses, L1Misses, L2Requests, L2Misses  uint64
	DRAMAccesses, XbarTransfers                 uint64
	BranchSubdiv, MemSubdiv, Revivals, PCMerges uint64
}

func (s *SimStats) add(o SimStats) {
	s.Cycles += o.Cycles
	s.Issued += o.Issued
	s.ThreadOps += o.ThreadOps
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.L1Accesses += o.L1Accesses
	s.L1Misses += o.L1Misses
	s.L2Requests += o.L2Requests
	s.L2Misses += o.L2Misses
	s.DRAMAccesses += o.DRAMAccesses
	s.XbarTransfers += o.XbarTransfers
	s.BranchSubdiv += o.BranchSubdiv
	s.MemSubdiv += o.MemSubdiv
	s.Revivals += o.Revivals
	s.PCMerges += o.PCMerges
}

func statsOf(r report.Result) SimStats {
	return SimStats{
		Cycles: r.Cycles, Issued: r.Stats.Issued, ThreadOps: r.Stats.ThreadOps,
		Buckets:    r.Stats.CycleBuckets(),
		L1Accesses: r.L1.Accesses, L1Misses: r.L1.Misses,
		L2Requests: r.L2.Requests, L2Misses: r.L2.Misses,
		DRAMAccesses: r.DRAMAccesses, XbarTransfers: r.XbarTransfers,
		BranchSubdiv: r.Stats.BranchSubdivisions, MemSubdiv: r.Stats.MemSubdivisions,
		Revivals: r.Stats.Revivals, PCMerges: r.Stats.PCMerges,
	}
}

var bucketLabels = wpu.CycleBucketLabels

// runCold is the core workloads' op: a fresh session with no store and
// verification on, so the whole of build + run + verify is paid.
func runCold(p Point) (SimStats, error) {
	r, err := report.NewSession().Run(p.Bench, p.knobs())
	if err != nil {
		return SimStats{}, err
	}
	return statsOf(r), nil
}

// runSpanned is runCold's traced twin. Session.Run is one opaque call, so
// the traced run repeats its steps from the same public entry points with
// a span around each: sim.new, workloads.build, sim.run (one
// sim.run_kernel child per launch), workloads.verify, energy.estimate.
func runSpanned(rec *recorder, op span, p Point) (SimStats, error) {
	spec, err := workloads.ByNameScaled(p.Bench, max(p.Scale, 1))
	if err != nil {
		return SimStats{}, err
	}
	cfg := p.knobs().Config()

	sp := rec.begin(op, "sim.new")
	sys, err := sim.New(cfg)
	rec.end(sp)
	if err != nil {
		return SimStats{}, err
	}

	sp = rec.begin(op, "workloads.build")
	inst, err := spec.Build(sys)
	rec.end(sp)
	if err != nil {
		return SimStats{}, err
	}

	run := rec.begin(op, "sim.run")
	for i, st := range inst.Steps() {
		k := rec.begin(run, fmt.Sprintf("sim.run_kernel[%d]", i))
		_, err := sys.RunKernel(st.Prog, st.Threads)
		rec.end(k)
		if err != nil {
			rec.end(run)
			return SimStats{}, fmt.Errorf("%s step %d: %w", p, i, err)
		}
	}
	rec.end(run)

	sp = rec.begin(op, "workloads.verify")
	err = inst.Verify()
	rec.end(sp)
	if err != nil {
		return SimStats{}, fmt.Errorf("%s: %w", p, err)
	}

	sp = rec.begin(op, "energy.estimate")
	en := energy.Estimate(sys)
	rec.end(sp)

	return statsOf(report.Result{
		Cycles: sys.Cycles(), Stats: sys.TotalStats(), L1: sys.L1Stats(), L2: sys.L2Stats(),
		XbarTransfers: sys.Hier.Xbar.Transfers(), DRAMAccesses: sys.Hier.DRAM.Accesses,
		Energy: en,
	}), nil
}

// obsRun is one in-process traced simulation (Session.RunTraced): the
// observability cost without the daemon's SSE publisher.
type obsRun struct {
	Stats           SimStats
	Events, Samples int
	trace           *obs.Trace
}

func runObs(p Point) (obsRun, error) {
	tr := obs.New(1000) // the daemon's default sampling interval
	r, err := report.NewSession().RunTraced(p.Bench, p.knobs(), tr)
	if err != nil {
		return obsRun{}, err
	}
	return obsRun{Stats: statsOf(r), Events: len(tr.Events), Samples: len(tr.Samples), trace: tr}, nil
}

// chromeExport renders the run's trace as Chrome trace-event JSON and
// returns the byte count.
func (o obsRun) chromeExport() (int, error) {
	var n countWriter
	err := obs.WriteChromeTrace(&n, o.trace)
	return int(n), err
}

type countWriter int

func (c *countWriter) Write(b []byte) (int, error) { *c += countWriter(len(b)); return len(b), nil }

// spineExhibits is the §5 scheme-comparison spine the report workloads
// regenerate: 96 simulations (8 kernels × 12 schemes at Table 3 defaults).
var spineExhibits = []string{"t1", "7", "11", "13", "headline", "14", "19", "stalls"}

// reportSession wraps one report.Session for the report workloads.
type reportSession struct {
	s     *report.Session
	HMean float64 // Figure 13's DWS.ReviveSplit harmonic-mean speedup, set by exhibits
}

// newReportSession opens storeDir (skipped when empty) and a session over
// it: what one dwsreport invocation sets up.
func newReportSession(jobs int, storeDir string) (*reportSession, error) {
	opts := []report.Option{report.WithJobs(jobs)}
	if storeDir != "" {
		st, err := report.OpenStoreWith(storeDir, report.StoreOptions{})
		if err != nil {
			return nil, err
		}
		opts = append(opts, report.WithStore(st))
	}
	return &reportSession{s: report.NewSession(opts...)}, nil
}

// exhibits regenerates the spine into w, one report.exhibit.<id> span each.
func (rs *reportSession) exhibits(w io.Writer, rec *recorder, op span) error {
	s := rs.s
	for _, id := range spineExhibits {
		sp := rec.begin(op, "report.exhibit."+id)
		var err error
		switch id {
		case "t1":
			_, err = s.Table1(w)
		case "7":
			_, err = s.Figure7(w)
		case "11":
			_, err = s.Figure11(w)
		case "13":
			var out []report.SchemeSpeedups
			out, err = s.Figure13(w)
			for _, o := range out {
				if o.Scheme == wpu.SchemeRevive {
					rs.HMean = o.HMean
				}
			}
		case "headline":
			err = s.Headline(w)
		case "14":
			_, err = s.Figure14(w)
		case "19":
			_, err = s.Figure19(w)
		case "stalls":
			_, err = s.StallBreakdown(w)
		}
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("exhibit %s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// cacheCounts is report.CacheStats without the type.
type cacheCounts struct{ MemHits, DiskHits, Misses uint64 }

func (rs *reportSession) counts() cacheCounts {
	c := rs.s.Stats()
	return cacheCounts{c.MemHits, c.DiskHits, c.Misses}
}

// census returns the statistics of every point the session has produced.
// The spine only runs Table 3 defaults under a named scheme, so walking
// kernels × schemes and keeping the points with a provenance finds them
// all; the caller checks the count against the session's counters.
func (rs *reportSession) census() (map[string]SimStats, error) {
	out := make(map[string]SimStats)
	for _, b := range report.BenchNames() {
		for _, sc := range wpu.AllSchemes {
			k := report.DefaultKnobs(sc)
			if rs.s.Provenance(b, k) == "" {
				continue
			}
			r, err := rs.s.Run(b, k)
			if err != nil {
				return nil, err
			}
			out[Point{Bench: b, Scheme: string(sc)}.String()] = statsOf(r)
		}
	}
	return out, nil
}

// storeProbe times the result store's public calls on its own: open and
// re-index a populated directory, save, load, and the record size.
type storeProbe struct {
	OpenMs, SaveUs, LoadUs, RecordBytes float64
}

// probeKnobs and probeResult are the one small result (Filter under DWS)
// that the store, run-document and serving probes all save or render.
var (
	probeKnobs  = report.DefaultKnobs(wpu.SchemeRevive)
	probeResult = sync.OnceValues(func() (report.Result, error) {
		return report.NewSession().Run("Filter", probeKnobs)
	})
)

func probeStore(dir string, records int) (storeProbe, error) {
	r, err := probeResult()
	if err != nil {
		return storeProbe{}, err
	}
	st, err := report.OpenStoreWith(dir, report.StoreOptions{})
	if err != nil {
		return storeProbe{}, err
	}
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-probe|%04d", i)
	}
	t0 := time.Now()
	for _, k := range keys {
		if err := st.Save(k, r); err != nil {
			return storeProbe{}, err
		}
	}
	save := time.Since(t0)
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := st.Load(k); !ok {
			return storeProbe{}, fmt.Errorf("store probe: record %s did not load", k)
		}
	}
	load := time.Since(t0)
	stats := st.Stats()

	const opens = 5
	t0 = time.Now()
	for i := 0; i < opens; i++ {
		if _, err := report.OpenStoreWith(dir, report.StoreOptions{}); err != nil {
			return storeProbe{}, err
		}
	}
	open := time.Since(t0)
	n := float64(records)
	return storeProbe{
		OpenMs:      ms(open) / opens,
		SaveUs:      us(save) / n,
		LoadUs:      us(load) / n,
		RecordBytes: float64(stats.BytesInUse) / n,
	}, nil
}

// probeRunDoc times NewRunDoc + WriteStatsDoc for one result, in µs.
func probeRunDoc() (float64, error) {
	k := probeKnobs
	r, err := probeResult()
	if err != nil {
		return 0, err
	}
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		doc := report.NewRunDoc(r, k, "simulated", 0)
		if err := report.WriteStatsDoc(io.Discard, []report.RunDoc{doc}, report.CacheStats{}); err != nil {
			return 0, err
		}
	}
	return us(time.Since(t0)) / n, nil
}

// serveProbe times the daemon's three pure functions in isolation.
type serveProbe struct{ DecodeUs, RenderDocUs, ResultKeyUs float64 }

func probeServe(body []byte) (serveProbe, error) {
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, derr := serve.DecodeJobRequest(bytes.NewReader(body)); derr != nil {
			return serveProbe{}, derr
		}
	}
	dec := time.Since(t0)

	k := probeKnobs
	r, err := probeResult()
	if err != nil {
		return serveProbe{}, err
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		serve.RenderResultDoc(r, k)
	}
	ren := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		serve.ResultKey("Filter", k)
	}
	key := time.Since(t0)
	return serveProbe{us(dec) / n, us(ren) / n, us(key) / n}, nil
}

// referenceDoc simulates a job body's point in process and renders the
// document the daemon must serve for it, byte for byte.
func referenceDoc(body []byte) (key string, doc []byte, st SimStats, err error) {
	req, derr := serve.DecodeJobRequest(bytes.NewReader(body))
	if derr != nil {
		return "", nil, SimStats{}, derr
	}
	k := req.Knobs.Knobs()
	r, err := report.NewSession().Run(req.Bench, k)
	if err != nil {
		return "", nil, SimStats{}, err
	}
	return serve.ResultKey(req.Bench, k), serve.RenderResultDoc(r, k), statsOf(r), nil
}

// ---- synthetic single-layer probes (traced run only) ----

// tickHandler reschedules itself a fixed delay ahead until its budget of
// deliveries is spent: a steady population of in-flight events.
type tickHandler struct {
	q     *engine.Queue
	left  *int
	delay engine.Cycle
}

func (h *tickHandler) HandleEvent(uint64) {
	if *h.left--; *h.left > 0 {
		h.q.ScheduleAfter(h.delay, h, 0)
	}
}

// probeEngine returns ns per delivered event with 64 events in flight at
// delays inside the timing wheel (1–200) and past it (≥256, the overflow
// heap), and ns per RunUntil call on an empty queue.
func probeEngine() (near, far, idle float64) {
	perEvent := func(delay func(i int) engine.Cycle) float64 {
		const events = 400_000
		var q engine.Queue
		left := events
		hs := make([]tickHandler, 64)
		for i := range hs {
			hs[i] = tickHandler{q: &q, left: &left, delay: delay(i)}
			q.ScheduleAfter(hs[i].delay, &hs[i], 0)
		}
		t0 := time.Now()
		for left > 0 {
			q.Drain()
		}
		return ns(time.Since(t0)) / events
	}
	near = perEvent(func(i int) engine.Cycle { return engine.Cycle(1 + (i*37)%200) })
	far = perEvent(func(i int) engine.Cycle { return engine.Cycle(256 + (i*53)%512) })

	const calls = 2_000_000
	var q engine.Queue
	t0 := time.Now()
	for c := engine.Cycle(0); c < calls; c++ {
		q.RunUntil(c)
	}
	idle = ns(time.Since(t0)) / calls
	return near, far, idle
}

type nopHandler struct{}

func (nopHandler) HandleEvent(uint64) {}

// probeMem returns ns per L1 access for a resident address stream (hits)
// and a streaming one (every access a new line: L1 miss → xbar → L2 miss →
// DRAM), each drained through the event queue, and ns per functional
// memory write+read pair.
func probeMem() (hit, miss, funcmem float64) {
	cfg := sim.DefaultConfig()
	var q engine.Queue
	h := mem.NewHierarchy(&q, 1, cfg.Hier)
	l1 := h.L1s[0]
	line := cfg.Hier.L1.LineSize
	var done nopHandler

	stream := func(n int, addr func(i int) uint64) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			l1.AccessEvent(addr(i), false, done, 0)
			if i%8 == 7 { // a warp's worth of requests per cycle batch
				q.Drain()
			}
		}
		q.Drain()
		return ns(time.Since(t0)) / float64(n)
	}
	const resident = 64 // lines, well inside 32 KB
	stream(resident, func(i int) uint64 { return uint64(i) * line })
	hit = stream(400_000, func(i int) uint64 { return uint64(i%resident) * line })
	base := uint64(1 << 30)
	miss = stream(100_000, func(i int) uint64 { return base + uint64(i)*line })

	m := mem.NewMemory()
	const words = 1 << 16
	at := m.AllocWords(words)
	for i := uint64(0); i < words; i++ {
		m.Write(at+8*i, int64(i))
	}
	const rw = 2_000_000
	var sink int64
	t0 := time.Now()
	for i := uint64(0); i < rw; i++ {
		a := at + 8*((i*4099)%words)
		m.Write(a, int64(i))
		sink += m.Read(a)
	}
	funcmem = ns(time.Since(t0)) / rw
	if sink == 42 {
		fmt.Fprint(io.Discard, sink)
	}
	return hit, miss, funcmem
}

// probeWPU runs a straight-line ALU loop (no memory traffic, no
// divergence) on a one-WPU machine and returns host ns per issued SIMD
// instruction: scheduler + issue + lane execution with mem bypassed.
func probeWPU() (float64, error) {
	pb := program.NewBuilder("bench-alu")
	pb.Movi(4, 0)
	pb.Movi(5, 3)
	pb.Fmovi(8, 1.5)
	pb.Label("head")
	pb.Addi(4, 4, 1)
	pb.Mul(6, 4, 5)
	pb.Xor(7, 6, 4)
	pb.Shli(7, 7, 2)
	pb.Fmul(9, 8, 8)
	pb.Fadd(8, 9, 8)
	pb.Max(6, 6, 7)
	pb.Slti(10, 4, 2048)
	pb.Bnez(10, "head")
	pb.Halt()
	p, err := pb.Build()
	if err != nil {
		return 0, err
	}
	cfg := sim.DefaultConfig()
	cfg.WPUs = 1
	cfg.WPU = wpu.SchemeConv.Apply(cfg.WPU)
	var issued uint64
	var spent time.Duration
	for i := 0; i < 3; i++ {
		sys, err := sim.New(cfg)
		if err != nil {
			return 0, err
		}
		threads := sim.Threads(sys.ThreadCapacity(), nil)
		t0 := time.Now()
		if _, err := sys.RunKernel(p, threads); err != nil {
			return 0, err
		}
		spent += time.Since(t0)
		issued += sys.TotalStats().Issued
	}
	return ns(spent) / float64(issued), nil
}

// probeISA returns ns per active lane of ExecALULanes over an int/float
// instruction mix, half the calls under a full 16-lane mask and half
// under a sparse one.
func probeISA() float64 {
	mix := []isa.Inst{
		{Op: isa.ADD, Dst: 4, SrcA: 5, SrcB: 6},
		{Op: isa.MUL, Dst: 7, SrcA: 4, SrcB: 5},
		{Op: isa.XOR, Dst: 8, SrcA: 7, SrcB: 4},
		{Op: isa.SHLI, Dst: 9, SrcA: 8, Imm: 3},
		{Op: isa.SLT, Dst: 10, SrcA: 9, SrcB: 7},
		{Op: isa.FADD, Dst: 11, SrcA: 12, SrcB: 13},
		{Op: isa.FMUL, Dst: 12, SrcA: 11, SrcB: 13},
		{Op: isa.FMAX, Dst: 13, SrcA: 12, SrcB: 11},
	}
	dec := isa.DecodeProgram(mix)
	const width = 16
	lr := isa.NewLaneRegs(width)
	for lane := 0; lane < width; lane++ {
		for r := isa.Reg(1); r < 16; r++ {
			lr.Set(lane, r, int64(lane)*7+int64(r))
		}
	}
	const full, sparse = uint64(1<<width - 1), uint64(0x8421) // 16 and 4 lanes
	const rounds = 200_000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for j := range dec {
			isa.ExecALULanes(&dec[j], lr, full)
			isa.ExecALULanes(&dec[j], lr, sparse)
		}
	}
	lanes := float64(rounds * len(dec) * (16 + 4))
	return ns(time.Since(t0)) / lanes
}

// programProbe is the mean cost, in µs per kernel program, of the three
// static analyses' public entry points.
type programProbe struct{ VerifyUs, MemAccessUs, CostModelUs float64 }

// probeProgram builds each named kernel once and runs Verify,
// MemAccessFor and CostModelFor on every program of its launch plan.
func probeProgram(benches []string) (programProbe, error) {
	cfg := sim.DefaultConfig()
	cfg.WPU = wpu.SchemeRevive.Apply(cfg.WPU)
	var progs []*program.Program
	threads := map[*program.Program]int{}
	for _, b := range benches {
		spec, err := workloads.ByName(b)
		if err != nil {
			return programProbe{}, err
		}
		sys, err := sim.New(cfg)
		if err != nil {
			return programProbe{}, err
		}
		inst, err := spec.Build(sys)
		if err != nil {
			return programProbe{}, err
		}
		for _, st := range inst.Steps() {
			if _, seen := threads[st.Prog]; !seen {
				progs = append(progs, st.Prog)
				threads[st.Prog] = len(st.Threads)
			}
		}
	}
	const rounds = 3
	var out programProbe
	n := float64(rounds * len(progs))
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range progs {
			p.Verify()
		}
	}
	out.VerifyUs = us(time.Since(t0)) / n
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range progs {
			p.MemAccessFor(sim.CostParamsFor(cfg, threads[p]).Mem)
		}
	}
	out.MemAccessUs = us(time.Since(t0)) / n
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range progs {
			p.CostModelFor(sim.CostParamsFor(cfg, threads[p]))
		}
	}
	out.CostModelUs = us(time.Since(t0)) / n
	return out, nil
}

// probeHist returns ns per obs.Hist.Record.
func probeHist() float64 {
	const n = 5_000_000
	var h obs.Hist
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		h.Record(i & 1023)
	}
	d := time.Since(t0)
	if h.Empty() {
		return 0
	}
	return ns(d) / n
}
