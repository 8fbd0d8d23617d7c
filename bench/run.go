package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// run is the state of one workload run: its inputs, the metrics it has
// measured so far, and the tally of ops attempted and failed.
type run struct {
	cfg  runConfig
	name string
	tmp  string     // scratch directory inside the checkout, removed afterwards
	par  int        // worker goroutines / daemon workers / HTTP clients
	rng  *rand.Rand // from -seed: permutes point and job order, nothing else
	rec  *recorder  // nil in the untraced run
	sp   *speedometer

	metrics   map[string]measured
	attempted int
	failed    int
	failures  []string
	digest    string
}

func newRun(cfg runConfig, name, tmp string) *run {
	r := &run{cfg: cfg, name: name, tmp: tmp, par: parallelism(),
		rng: rand.New(rand.NewSource(cfg.Seed)), sp: newSpeedometer(), metrics: map[string]measured{}}
	if cfg.Trace {
		r.rec = newRecorder()
	}
	return r
}

// set records a metric; the name must be in the vocabulary.
func (r *run) set(name string, v float64, samples int) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // nothing was measured (every op failed); result() reports that
	}
	r.metrics[name] = measured{Value: v, Unit: d.Unit, Samples: samples}
}

// failf counts one failed op and keeps the first few reasons.
func (r *run) failf(format string, a ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// budget is how long the timed part measures; a smoke run does one pass.
func (r *run) budget() time.Duration {
	if r.cfg.Smoke {
		return 0
	}
	return time.Duration(r.cfg.Seconds * float64(time.Second))
}

func (r *run) result(wall time.Duration) workloadResult {
	if !r.cfg.Trace {
		for _, d := range endToEnd {
			if r.metrics[d.Name].Value <= 0 {
				r.failf("end-to-end metric %s was not measured", d.Name)
			}
		}
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.failf("no op was attempted")
	}
	r.set("host.calibration_ms", median(r.sp.took), len(r.sp.took))
	return workloadResult{
		Workload: r.name, Correct: r.failed == 0, Attempted: r.attempted, Failed: min(r.failed, r.attempted),
		Failures: r.failures, SimDigest: r.digest, WallS: wall.Seconds(), Metrics: r.metrics,
	}
}

// timeSetup runs a workload's set-up and records setup_s. Set-up that is
// cheap is repeated (up to five times within two seconds) and the median
// reported, so that a 5 ms daemon start reads as steadily as a 3 s store
// population.
func (r *run) timeSetup(setup func() error) error {
	var took []timed
	var total time.Duration
	for len(took) < 5 {
		r.sp.calibrate()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		t := since(t0)
		took = append(took, t)
		total += t.d
		if r.cfg.Smoke || total+t.d > 2*time.Second {
			break
		}
	}
	r.sp.calibrate()
	r.set("setup_s", median(r.sp.refMsAll(took))/1e3, len(took))
	return nil
}

// setDigest fingerprints the simulated statistics of every point the
// workload produced: sha256 over one line per point, sorted, so that
// neither seed, pass, -j nor tracing can move it.
func (r *run) setDigest(points map[string]SimStats) {
	lines := make([]string, 0, len(points))
	for name, s := range points {
		lines = append(lines, fmt.Sprintf("%s %+v", name, s))
	}
	sort.Strings(lines)
	r.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))[:16]
}

// setSimCounts reports the exact simulated counts of one pass over the
// workload's points as per-layer metrics.
func (r *run) setSimCounts(points map[string]SimStats) {
	var t SimStats
	for _, s := range points {
		t.add(s)
	}
	n := len(points)
	for name, v := range map[string]uint64{
		"mem.l1_accesses": t.L1Accesses, "mem.l1_misses": t.L1Misses,
		"mem.l2_accesses": t.L2Requests, "mem.l2_misses": t.L2Misses,
		"mem.dram_accesses": t.DRAMAccesses, "mem.xbar_transfers": t.XbarTransfers,
		"wpu.issued": t.Issued, "wpu.threadops": t.ThreadOps,
		"wpu.subdiv_branch": t.BranchSubdiv, "wpu.subdiv_mem": t.MemSubdiv,
		"wpu.revivals": t.Revivals, "wpu.pc_merges": t.PCMerges,
	} {
		r.set(name, float64(v), n)
	}
	for i, label := range bucketLabels {
		r.set("wpu.cycles."+label, float64(t.Buckets[i]), n)
	}
}

// memMark is a reading of the allocator and collector counters.
type memMark struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

// setAllocs reports allocations per delivered simulation result between
// two marks.
func (r *run) setAllocs(from, to memMark, sims int) {
	r.set("allocs_per_sim", float64(to.mallocs-from.mallocs)/float64(sims), sims)
	r.set("alloc_mb_per_sim", float64(to.bytes-from.bytes)/1e6/float64(sims), sims)
}

// peakRSSMB reads a process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // "VmHWM:  12345 kB"
			return kb / 1024
		}
	}
	return 0
}

// profiled runs the traced part of a workload under the CPU profiler and
// reports each layer's share of the CPU time, the collector's activity
// over the same interval, and the process's peak RSS.
func (r *run) profiled(body func() error) error {
	var buf bytes.Buffer
	before := markMem()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := body()
	pprof.StopCPUProfile()
	after := markMem()
	if err != nil {
		return err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for metric, share := range cpuShares(samples) {
		r.set(metric, share, len(samples))
	}
	r.set("host.gc_cycles", float64(after.gcs-before.gcs), 1)
	r.set("host.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, 1)
	r.set("host.peak_rss_mb", peakRSSMB(os.Getpid()), 1)
	return nil
}

// probeLayers runs the synthetic single-layer probes of the traced run.
// They do not depend on the workload except for the kernels whose
// programs the analyses are timed on.
func (r *run) probeLayers(kernels []string) error {
	near, far, idle := probeEngine()
	r.set("engine.ns_per_event", near, 1)
	r.set("engine.ns_per_event_far", far, 1)
	r.set("engine.idle_rununtil_ns", idle, 1)

	hit, miss, funcmem := probeMem()
	r.set("mem.l1_hit_ns", hit, 1)
	r.set("mem.l1_miss_ns", miss, 1)
	r.set("mem.funcmem_rw_ns", funcmem, 1)

	alu, err := probeWPU()
	if err != nil {
		return err
	}
	r.set("wpu.alu_issue_ns_per_instr", alu, 1)
	r.set("isa.alu_lane_ns", probeISA(), 1)

	pp, err := probeProgram(kernels)
	if err != nil {
		return err
	}
	r.set("program.verify_us", pp.VerifyUs, len(kernels))
	r.set("program.memaccess_us", pp.MemAccessUs, len(kernels))
	r.set("program.costmodel_us", pp.CostModelUs, len(kernels))

	r.set("obs.hist_record_ns", probeHist(), 1)
	if err := r.probeObs(kernels); err != nil {
		return err
	}

	sp, err := probeServe(jobBodies()[0].Body)
	if err != nil {
		return err
	}
	r.set("serve.decode_us", sp.DecodeUs, 1)
	r.set("serve.render_doc_us", sp.RenderDocUs, 1)
	r.set("serve.result_key_us", sp.ResultKeyUs, 1)

	st, err := probeStore(r.tmp+"/probe-store", 96)
	if err != nil {
		return err
	}
	r.set("report.store_open_ms", st.OpenMs, 96)
	r.set("report.store_save_us", st.SaveUs, 96)
	r.set("report.store_load_us", st.LoadUs, 96)
	r.set("report.store_record_bytes", st.RecordBytes, 96)
	doc, err := probeRunDoc()
	if err != nil {
		return err
	}
	r.set("report.rundoc_us", doc, 1)
	return nil
}

// probeObs runs each kernel's DWS point in process untraced and then with
// the observability sink attached: the cost of event emission alone, with
// no daemon and no SSE publisher. Tracing must not move a simulated
// statistic, so the pair is also a correctness check.
func (r *run) probeObs(kernels []string) error {
	var plain, traced time.Duration
	var events, samples int
	var biggest obsRun
	for _, k := range kernels {
		p := Point{Bench: k, Scheme: schemeDWS}
		r.attempted++
		t0 := time.Now()
		want, err := runCold(p)
		plain += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		o, err := runObs(p)
		traced += time.Since(t0)
		if err != nil {
			return err
		}
		if o.Stats != want {
			r.failf("%s: tracing changed the simulated statistics", p)
		}
		events += o.Events
		samples += o.Samples
		if o.Events >= biggest.Events {
			biggest = o
		}
	}
	r.set("obs.events", float64(events), len(kernels))
	r.set("obs.samples", float64(samples), len(kernels))
	r.set("obs.traced_over_untraced", float64(traced)/float64(plain), len(kernels))
	t0 := time.Now()
	if _, err := biggest.chromeExport(); err != nil {
		return err
	}
	r.set("obs.chrome_export_ms", ms(time.Since(t0)), 1)
	return nil
}
