package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// reportOp regenerates the exhibit spine once, as one dwsreport run
// would: open the store, make a session, render every exhibit.
type reportOp struct {
	bytes  []byte
	counts cacheCounts
	took   timed
	rs     *reportSession
}

// reportOnce is that op; rec is nil for an unrecorded one.
func reportOnce(rec *recorder, jobs int, storeDir string) (reportOp, error) {
	if err := checkParallel(jobs); err != nil {
		return reportOp{}, err
	}
	var buf bytes.Buffer
	op := rec.beginOp("op", 0)
	t0 := time.Now()
	rs, err := newReportSession(jobs, storeDir)
	if err == nil {
		err = rs.exhibits(&buf, rec, op)
	}
	took := since(t0)
	rec.end(op)
	if err != nil {
		return reportOp{}, err
	}
	return reportOp{buf.Bytes(), rs.counts(), took, rs}, nil
}

// runReport is report_cold (every op starts from an empty store and
// simulates the 96 points at -j 2) and report_warm (every op opens the
// store that set-up populated and must simulate nothing).
func runReport(r *run) error {
	warm := r.name == "report_warm"
	populated := filepath.Join(r.tmp, "populated")

	// Set-up: one full cold report. For report_warm it populates the
	// store; for report_cold it is the warm-up. Either way it yields the
	// reference bytes, the census of simulated statistics and the
	// headline every later op is checked against.
	var first reportOp
	err := r.timeSetup(func() error {
		if err := os.RemoveAll(populated); err != nil {
			return err
		}
		var err error
		first, err = reportOnce(nil, r.par, populated)
		return err
	})
	if err != nil {
		return err
	}
	r.attempted++
	census, err := first.rs.census()
	if err != nil {
		return err
	}
	sims := len(census)
	if uint64(sims) != first.counts.Misses {
		r.failf("census found %d points, the session simulated %d", sims, first.counts.Misses)
	}
	var cycles, threadOps uint64
	for _, s := range census {
		cycles += s.Cycles
		threadOps += s.ThreadOps
	}
	hmean := first.rs.HMean

	// check compares one op's output with the reference.
	check := func(what string, op reportOp, wantMisses uint64) {
		r.attempted++
		switch {
		case !bytes.Equal(op.bytes, first.bytes):
			r.failf("%s: report bytes differ from the first cold report", what)
		case op.counts.Misses != wantMisses:
			r.failf("%s: simulated %d points, want %d", what, op.counts.Misses, wantMisses)
		case op.rs.HMean != hmean:
			r.failf("%s: dws_speedup_hmean %v, first report had %v", what, op.rs.HMean, hmean)
		}
	}
	// The same report from the warm store at -j 1 and at -j 2 must be the
	// same bytes and simulate nothing.
	for _, jobs := range []int{1, r.par} {
		op, err := reportOnce(nil, jobs, populated)
		if err != nil {
			return err
		}
		check(fmt.Sprintf("warm store -j %d", jobs), op, 0)
		if op.counts.DiskHits != uint64(sims) {
			r.failf("warm store -j %d: %d disk hits, want %d", jobs, op.counts.DiskHits, sims)
		}
	}

	fresh := 0
	timedOp := func(rec *recorder, jobs int) (reportOp, error) {
		dir := populated
		if !warm {
			fresh++
			dir = filepath.Join(r.tmp, fmt.Sprintf("cold-%d", fresh))
			defer os.RemoveAll(dir)
		}
		op, err := reportOnce(rec, jobs, dir)
		if err != nil {
			return op, err
		}
		if warm {
			check("warm op", op, 0)
		} else {
			check("cold op", op, uint64(sims))
		}
		return op, nil
	}
	// opsFor repeats the op until d has elapsed (at least once).
	var last reportOp
	opsFor := func(rec *recorder, d time.Duration) ([]float64, error) {
		var took []timed
		for start := time.Now(); time.Since(start) < d || len(took) == 0; {
			r.sp.probe()
			op, err := timedOp(rec, r.par)
			if err != nil {
				return nil, err
			}
			last = op
			took = append(took, op.took)
		}
		r.sp.calibrate()
		r.set("host.op_p50_wall_ms", median(wallMs(took)), len(took))
		return r.sp.refMsAll(took), nil
	}
	setCounts := func() {
		r.set("report.mem_hits", float64(last.counts.MemHits), 1)
		r.set("report.disk_hits", float64(last.counts.DiskHits), 1)
		r.set("report.misses", float64(last.counts.Misses), 1)
		r.set("report.dws_speedup_hmean", hmean, 1)
	}

	if !r.cfg.Trace {
		before := markMem()
		lat, err := opsFor(nil, r.budget())
		if err != nil {
			return err
		}
		after := markMem()
		opS := median(lat) / 1e3
		r.set("op_p50_ms", median(lat), len(lat))
		r.set("sim_mcycles_per_s", float64(cycles)/1e6/opS, len(lat))
		r.set("sim_mthreadops_per_s", float64(threadOps)/1e6/opS, len(lat))
		r.setAllocs(before, after, len(lat)*sims)
		r.set("peak_rss_mb", peakRSSMB(os.Getpid()), 1)
		if tailPercentile(len(lat)) >= 90 {
			r.set("report.op_p90_ms", percentile(lat, 90), len(lat))
		}
		setCounts()
		r.setDigest(census)
		return nil
	}

	// Traced run: unrecorded reference ops first, then the same ops with a
	// span per exhibit under the profiler.
	plain, err := opsFor(nil, r.budget()*2/10)
	if err != nil {
		return err
	}
	var traced []float64
	err = r.profiled(func() error {
		traced, err = opsFor(r.rec, r.budget()*4/10)
		return err
	})
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", median(traced)/median(plain), len(traced))
	if tailPercentile(len(traced)) >= 90 {
		r.set("report.op_p90_ms", percentile(traced, 90), len(traced))
	}
	setCounts()

	// A second pass over the exhibits on the session that just finished is
	// pure rendering: every point is a memory hit.
	t0 := time.Now()
	if err := last.rs.exhibits(&bytes.Buffer{}, nil, noSpan); err != nil {
		return err
	}
	r.set("report.render_ms", ms(time.Since(t0)), 1)

	// The same report at one worker over two: what the parallel executor
	// buys on this box (cold: from an empty store, so it also checks the
	// bytes at -j 1 against -j 2).
	j1, err := timedOp(nil, 1)
	if err != nil {
		return err
	}
	r.sp.calibrate()
	r.set("report.j1_over_j2", r.sp.refMs(j1.took)/median(traced), 1)

	r.setSimCounts(census)
	r.setDigest(census)
	return r.probeLayers(allKernels)
}
