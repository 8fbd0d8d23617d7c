package main

import (
	"os"
	"time"
)

// coreSpec is a core workload: kernels × {Conv, DWS.ReviveSplit} at one
// input scale, each point simulated cold, one at a time.
type coreSpec struct {
	kernels []string
	scale   int
}

var coreSpecs = map[string]coreSpec{
	"core_mem":   {[]string{"FFT", "Filter", "HotSpot", "LU"}, 1},
	"core_issue": {[]string{"Merge", "Short", "KMeans", "SVM"}, 1},
	"core_long":  {[]string{"LU", "Merge", "KMeans"}, 4},
}

func (c coreSpec) points() []Point {
	var ps []Point
	for _, k := range c.kernels {
		for _, s := range []string{schemeConv, schemeDWS} {
			ps = append(ps, Point{Bench: k, Scheme: s, Scale: c.scale})
		}
	}
	return ps
}

// corePass is the per-point outcome of timed passes: op latencies and,
// for traced ops, the time inside the sim.run span.
type corePass struct {
	ops [][]timed         // [point][pass] as measured
	lat [][]float64       // [point][pass] the same in reference-box ms
	run [][]time.Duration // [point][pass] sim.run span, traced ops only
}

// typical is the typical time of one pass: each point's median latency,
// summed. A burst of host noise that hits one simulation moves one
// sample of one point, not the pass.
func (c corePass) typical() (msTotal float64) {
	for _, l := range c.lat {
		msTotal += median(l)
	}
	return msTotal
}

func (c corePass) all() []float64 {
	var all []float64
	for _, l := range c.lat {
		all = append(all, l...)
	}
	return all
}

// runCore is the closed loop of the three core workloads: one thread,
// passes over the points in seed-permuted order until the time is up.
func runCore(r *run) error {
	spec := coreSpecs[r.name]
	points := spec.points()
	ref := make(map[string]SimStats, len(points))

	// pass runs every point once through op and checks that each point's
	// simulated statistics repeat exactly.
	pass := func(into *corePass, op func(Point) (SimStats, time.Duration, error)) {
		for _, i := range r.rng.Perm(len(points)) {
			p := points[i]
			r.attempted++
			r.sp.probe()
			t0 := time.Now()
			st, inRun, err := op(p)
			t := since(t0)
			if err != nil {
				r.failf("%s: %v", p, err)
				continue
			}
			if want, seen := ref[p.String()]; !seen {
				ref[p.String()] = st
			} else if st != want {
				r.failf("%s: simulated statistics differ between passes", p)
			}
			if into != nil {
				into.ops[i] = append(into.ops[i], t)
				into.run[i] = append(into.run[i], inRun)
			}
		}
	}
	cold := func(p Point) (SimStats, time.Duration, error) {
		st, err := runCold(p)
		return st, 0, err
	}
	// passesFor runs passes with op until d has elapsed (at least one).
	passesFor := func(d time.Duration, op func(Point) (SimStats, time.Duration, error)) *corePass {
		cp := &corePass{ops: make([][]timed, len(points)), run: make([][]time.Duration, len(points))}
		for start := time.Now(); time.Since(start) < d || len(cp.ops[0]) == 0; {
			pass(cp, op)
		}
		r.sp.calibrate()
		for _, ops := range cp.ops {
			cp.lat = append(cp.lat, r.sp.refMsAll(ops))
		}
		return cp
	}

	// Set-up is the warm-up pass: first use of every kernel, heap growth.
	if err := r.timeSetup(func() error { pass(nil, cold); return nil }); err != nil {
		return err
	}

	if !r.cfg.Trace {
		before := markMem()
		cp := passesFor(r.budget(), cold)
		after := markMem()
		r.setCoreEndToEnd(cp, ref, points)
		r.setAllocs(before, after, len(cp.all()))
		r.set("peak_rss_mb", peakRSSMB(os.Getpid()), 1)
		r.setDigest(ref)
		return nil
	}

	// Traced run: an untraced reference for the overhead ratio, then the
	// same ops with a span around every public call, under the profiler.
	plain := passesFor(r.budget()*3/10, cold)
	var traced *corePass
	spanned := func(p Point) (SimStats, time.Duration, error) {
		op := r.rec.beginOp("op", 0)
		st, err := runSpanned(r.rec, op, p)
		r.rec.end(op)
		return st, r.rec.childDuration(op, "sim.run"), err
	}
	err := r.profiled(func() error {
		traced = passesFor(r.budget()*7/10, spanned)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", traced.typical()/plain.typical(), len(traced.all()))
	r.setCoreLayers(traced, ref, points)
	r.setSimCounts(ref)
	r.setDigest(ref)
	return r.probeLayers(spec.kernels)
}

// setCoreEndToEnd derives the end-to-end metrics from untraced passes.
func (r *run) setCoreEndToEnd(cp *corePass, ref map[string]SimStats, points []Point) {
	var cycles, threadOps uint64
	for _, p := range points {
		cycles += ref[p.String()].Cycles
		threadOps += ref[p.String()].ThreadOps
	}
	all := cp.all()
	passS := cp.typical() / 1e3
	r.set("op_p50_ms", pointMedian(cp.ops, r.sp.refMsAll), len(all))
	r.set("host.op_p50_wall_ms", pointMedian(cp.ops, wallMs), len(all))
	r.set("sim_mcycles_per_s", float64(cycles)/1e6/passS, len(all))
	r.set("sim_mthreadops_per_s", float64(threadOps)/1e6/passS, len(all))
}

// setCoreLayers derives the span metrics of the traced passes: median
// time in each child span, the share of an op its children cover, and
// host time per simulated cycle and per issued instruction by scheme.
func (r *run) setCoreLayers(cp *corePass, ref map[string]SimStats, points []Point) {
	for span, metric := range map[string]string{
		"sim.new": "sim.new_ms", "workloads.build": "workloads.build_ms", "sim.run": "sim.run_ms",
		"workloads.verify": "workloads.verify_ms",
	} {
		d := r.rec.durationsMs(span)
		r.set(metric, median(d), len(d))
	}
	d := r.rec.durationsMs("energy.estimate")
	r.set("energy.estimate_us", median(d)*1e3, len(d))
	r.set("sim.op_child_coverage", r.rec.childCoverage("op"), len(d))

	type acc struct {
		run            time.Duration
		cycles, issued uint64
		n              int
	}
	by := map[string]*acc{"conv": {}, "dws": {}}
	for i, p := range points {
		a := by["dws"]
		if p.Scheme == schemeConv {
			a = by["conv"]
		}
		st := ref[p.String()]
		for _, d := range cp.run[i] {
			a.run += d
			a.cycles += st.Cycles
			a.issued += st.Issued
			a.n++
		}
	}
	for scheme, a := range by {
		if a.cycles == 0 {
			continue
		}
		r.set("sim.host_ns_per_cycle."+scheme, ns(a.run)/float64(a.cycles), a.n)
		r.set("sim.host_ns_per_instr."+scheme, ns(a.run)/float64(a.issued), a.n)
	}
}

// allKernels is the suite, for the workloads that run all of it.
var allKernels = append(append([]string(nil), coreSpecs["core_mem"].kernels...), coreSpecs["core_issue"].kernels...)

var workloadFuncs = map[string]func(*run) error{
	"core_mem": runCore, "core_issue": runCore, "core_long": runCore,
	"report_cold": runReport, "report_warm": runReport,
	"serve_jobs": runServe,
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}
