//go:build mutants

package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutants are faults the tests are known to catch, each planted by
// replacing the one occurrence of old in file with new. Every row is a
// mutation an earlier change made by hand in a copy of the tree and
// recorded in CHANGES.md; the table makes it repeatable.
var mutants = []struct {
	name     string
	file     string
	old, new string
	pkgs     []string
}{
	{ // the cost model's concordance test passed this; the microkernels do not
		name: "DRAMLatencyTimesTen",
		file: "internal/mem/l2.go",
		old:  `d.q.ScheduleAfter(d.Latency, r.h, r.arg)`,
		new:  `d.q.ScheduleAfter(10*d.Latency, r.h, r.arg)`,
		pkgs: []string{"./internal/sim"},
	},
	{
		name: "L1HitLatencyTimesTen",
		file: "internal/mem/l1.go",
		old:  `return start + c.cfg.HitLat`,
		new:  `return start + 10*c.cfg.HitLat`,
		pkgs: []string{"./internal/sim"},
	},
	{ // the other half of the latency mutation: a hit in no time
		name: "L1HitLatencyZero",
		file: "internal/mem/l1.go",
		old:  `return start + c.cfg.HitLat`,
		new:  `return start`,
		pkgs: []string{"./internal/sim"},
	},
	{
		name: "DRAMLatencyZero",
		file: "internal/mem/l2.go",
		old:  `d.q.ScheduleAfter(d.Latency, r.h, r.arg)`,
		new:  `d.q.ScheduleAfter(0, r.h, r.arg)`,
		pkgs: []string{"./internal/sim"},
	},
	{ // a miss that finds every L2 MSHR busy is granted against another line's frame
		name: "L2MSHRFullGrantsOtherFrame",
		file: "internal/mem/l2.go",
		old: `		l.Stats.MSHRFull++
		l.waiting.push(r)
`,
		new: `		l.Stats.MSHRFull++
		l.grant(l.st.victim(r.lineAddr), r)
`,
		pkgs: []string{"./internal/mem", "./internal/sim"},
	},
	{ // the directory keeps naming caches it has just invalidated
		name: "RevokeLeavesSharerBits",
		file: "internal/mem/l2.go",
		old: `		row[b] = 0
`,
		new:  ``,
		pkgs: []string{"./internal/mem"},
	},
	{ // a recycled machine starts with the last run's bank reservations
		name: "L1ResetKeepsBankFree",
		file: "internal/mem/l1.go",
		old:  `		clear(c.bankFree)`,
		new:  ``,
		pkgs: []string{"./internal/report"},
	},
	{
		name: "SkipIdleOneCycleTooFar",
		file: "internal/sim/sim.go",
		old: `		s.skipped += uint64(to - s.cycle)
		s.cycle = to
`,
		new: `		s.skipped += uint64(to - s.cycle)
		s.cycle = to + 1
`,
		pkgs: []string{"./internal/report"},
	},
	{ // -j 1 must start no goroutine: the caller is the one worker
		name: "PrefetchCallerOnlyWaits",
		file: "internal/report/runner.go",
		old: `	p.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() { defer p.wg.Done(); p.work() }()
	}
	p.work()
`,
		new: `	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() { defer p.wg.Done(); p.work() }()
	}
`,
		pkgs: []string{"./internal/report"},
	},
	{
		name: "SlotWaitAdmitsLIFO",
		file: "internal/wpu/schedule.go",
		old: `	c := w.slotWait[0]
	w.slotWait = slices.Delete(w.slotWait, 0, 1)
`,
		new: `	c := w.slotWait[len(w.slotWait)-1]
	w.slotWait = w.slotWait[:len(w.slotWait)-1]
`,
		pkgs: []string{"./internal/wpu"},
	},
	{
		name: "RemoveSplitSkipsArenaRelease",
		file: "internal/wpu/schedule.go",
		old:  `	w.splits.release(s, w.epoch)`,
		new:  ``,
		pkgs: []string{"./internal/wpu"},
	},
	{
		name: "DyingSplitStaysQueued",
		file: "internal/wpu/schedule.go",
		old: `		i := slices.Index(w.slotWait, s)
		w.slotWait = slices.Delete(w.slotWait, i, i+1)
`,
		new:  ``,
		pkgs: []string{"./internal/wpu"},
	},
	{ // same cycle, no cycle moves: only the event order sees it
		name: "L2MissAfterDRAMFetch",
		file: "internal/mem/l2.go",
		old: `	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvL2Miss,
			Unit: r.from, Warp: -1, PC: -1, Addr: r.lineAddr})
	}
	m = l.getMSHR()
	m.lineAddr = r.lineAddr
	m.born = l.q.Now()
	m.reqs = append(m.reqs, r)
	l.mshrs.put(r.lineAddr, m)
	if n := uint64(l.mshrs.len()); n > l.Stats.MSHRPeak {
		l.Stats.MSHRPeak = n
	}
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMFetch,
			Unit: -1, Warp: -1, PC: -1, Addr: r.lineAddr})
	}
`,
		new: `	m = l.getMSHR()
	m.lineAddr = r.lineAddr
	m.born = l.q.Now()
	m.reqs = append(m.reqs, r)
	l.mshrs.put(r.lineAddr, m)
	if n := uint64(l.mshrs.len()); n > l.Stats.MSHRPeak {
		l.Stats.MSHRPeak = n
	}
	if l.trace != nil {
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvDRAMFetch,
			Unit: -1, Warp: -1, PC: -1, Addr: r.lineAddr})
		l.trace.Emit(obs.Event{Cycle: uint64(l.q.Now()), Kind: obs.EvL2Miss,
			Unit: r.from, Warp: -1, PC: -1, Addr: r.lineAddr})
	}
`,
		pkgs: []string{"./internal/workloads"},
	},
	{ // every preparation would be the first capacity's: launches too wide for a smaller machine
		name: "MemoKeyDropsCapacity",
		file: "internal/workloads/memo.go",
		old:  `k := memoKey{s.Name, s.scale, capacity}`,
		new:  `k := memoKey{s.Name, s.scale, 0}`,
		pkgs: []string{"./internal/workloads"},
	},
	{
		name: "LoadSkipsLastRegion",
		file: "internal/mem/funcmem.go",
		old: `	for _, r := range im.regions {
		for w, words`,
		new: `	for _, r := range im.regions[:len(im.regions)-1] {
		for w, words`,
		pkgs: []string{"./internal/mem", "./internal/workloads"},
	},
	{
		name: "VerifyAgainstZeroedReference",
		file: "internal/workloads/workloads.go",
		old:  `for i, want := range o.want {`,
		new:  `for i, want := range make([]int64, len(o.want)) {`,
		pkgs: []string{"./internal/workloads"},
	},
	{ // one scheme's fault: only a run under ReviveSplit sees it
		name: "ExecMemSkipsLaneZeroStore",
		file: "internal/wpu/wpu.go",
		old: `			w.fmem.Write(addr, val[lane])
`,
		new: `			if lane != 0 || w.cfg.MemScheme != ReviveSplit {
				w.fmem.Write(addr, val[lane])
			}
`,
		pkgs: []string{"./internal/workloads"},
	},
	{ // every output word stays right: only the image hash against Conv's sees it
		name: "ExecMemStrayStore",
		file: "internal/wpu/wpu.go",
		old: `			w.fmem.Write(addr, val[lane])
`,
		new: `			w.fmem.Write(addr, val[lane])
			if lane == 0 && w.cfg.MemScheme == ReviveSplit {
				w.fmem.Write(addr+1<<32, val[lane])
			}
`,
		pkgs: []string{"./internal/report"},
	},
	{ // every refresh after the first run keeps that run's labels
		name: "LiveKeepsFirstRunLabels",
		file: "internal/sim/live.go",
		old: `	lv.mu.Lock()
	lv.snap = s
`,
		new: `	lv.mu.Lock()
	if lv.snap.Bench != "" {
		s.Bench, s.Scheme = lv.snap.Bench, lv.snap.Scheme
	}
	lv.snap = s
`,
		pkgs: []string{"./internal/serve"},
	},
	{ // a failed job keeps owing its point: the key answers "pending" for ever
		name: "FailedJobKeepsKeyPending",
		file: "internal/serve/jobs.go",
		old: `	if n := rg.pending[p.key]; n > 1 {
		rg.pending[p.key] = n - 1
	} else {
		delete(rg.pending, p.key)
	}
`,
		new:  ``,
		pkgs: []string{"./internal/serve"},
	},
	{ // j1 and j0001 would name j001
		name: "JobLookupAcceptsNonCanonicalID",
		file: "internal/serve/jobs.go",
		old:  ` || rg.jobs[n-1].id != id {`,
		new:  ` {`,
		pkgs: []string{"./internal/serve"},
	},
	{ // two points differing only in NoProgSched would share a cache key
		name: "KeyDropsNoProgSched",
		file: "internal/report/knobs.go",
		old: `	b = strconv.AppendBool(append(b, ", NoProgSched:"...), k.NoProgSched)
`,
		new:  ``,
		pkgs: []string{"./internal/report"},
	},
	{ // a record cut inside its last float decodes, the missing bytes read as a zero
		name: "Float64ScalarAcceptsShortInput",
		file: "internal/report/codec.go",
		old: `		if len(b) < 8 {
			return 0, 0
		}
`,
		new: `		if len(b) < 8 {
			return 0, len(b)
		}
`,
		pkgs: []string{"./internal/report"},
	},
}

// TestMutants plants each mutant through `go test -overlay`, so the tree is
// never edited, runs its packages' tests and requires at least one to fail;
// it logs the tests that did. An old string that does not occur exactly once
// fails its row: a change that moves the code must move the row too. A
// mutant that does not build fails its row as well, since no test ran. Run
// it with `make mutants`.
func TestMutants(t *testing.T) {
	dir := t.TempDir()
	for i, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the old string occurs %d times, want once", m.file, n)
			}
			target, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			mutant := filepath.Join(dir, fmt.Sprintf("mutant%d.go", i))
			overlay := filepath.Join(dir, fmt.Sprintf("overlay%d.json", i))
			spec, err := json.Marshal(map[string]map[string]string{"Replace": {target: mutant}})
			if err == nil {
				err = os.WriteFile(mutant, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644)
			}
			if err == nil {
				err = os.WriteFile(overlay, spec, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}

			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", append([]string{"test", "-json", "-count=1", "-timeout=5m", "-overlay=" + overlay}, m.pkgs...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			runErr := cmd.Run()
			var failed []string
			for dec := json.NewDecoder(&stdout); ; {
				var ev struct{ Action, Test, Output string }
				if dec.Decode(&ev) != nil {
					break
				}
				switch {
				case ev.Action == "fail" && ev.Test != "":
					failed = append(failed, ev.Test)
				case ev.Action == "build-output":
					stderr.WriteString(ev.Output)
				}
			}
			switch {
			case runErr == nil:
				t.Errorf("survived: every test of %s passed", strings.Join(m.pkgs, " "))
			case len(failed) == 0:
				t.Errorf("no test failed (does the mutant build?): %v\n%s", runErr, stderr.String())
			default:
				t.Logf("killed by %s", strings.Join(leaves(failed), ", "))
			}
		})
	}
}

// leaves drops each failed test whose failure is a failed subtest's.
func leaves(failed []string) []string {
	var out []string
	for _, f := range failed {
		parent := false
		for _, g := range failed {
			parent = parent || strings.HasPrefix(g, f+"/")
		}
		if !parent {
			out = append(out, f)
		}
	}
	return out
}
