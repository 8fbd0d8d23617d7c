package sim_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wpu"
)

// TestExpositionMatchesMachine: after a finished run on the Table 3 machine
// (four WPUs), every series the live exposition prints carries the labels
// the run was attached with and equals what TotalStats, L1Stats, L2Stats and
// the DRAM give for the same machine, and no other series is printed.
func TestExpositionMatchesMachine(t *testing.T) {
	sys := newMachine(t, wpu.SchemeRevive, nil)
	var lv sim.Live
	finish := lv.Attach(sys, "FFT", string(wpu.SchemeRevive))
	if err := build(t, "FFT", sys).Run(sys); err != nil {
		t.Fatal(err)
	}
	finish()

	var b strings.Builder
	lv.WriteMetrics(&b)
	got := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		got[name] = v
	}

	labels := fmt.Sprintf("bench=%q,scheme=%q", "FFT", wpu.SchemeRevive)
	series := func(name string) string { return name + "{" + labels + "}" }
	tot, l1, l2 := sys.TotalStats(), sys.L1Stats(), sys.L2Stats()
	want := map[string]uint64{
		series("dwsim_cycles_total"):        sys.Cycles(),
		series("dwsim_wpu_cycles_total"):    tot.Cycles(),
		series("dwsim_instructions_total"):  tot.Issued,
		series("dwsim_l1_accesses_total"):   l1.Accesses,
		series("dwsim_l1_misses_total"):     l1.Misses,
		series("dwsim_l2_misses_total"):     l2.Misses,
		series("dwsim_dram_accesses_total"): sys.Hier.DRAM.Accesses,
		series("dwsim_l2_mshr_outstanding"): uint64(sys.Hier.L2.OutstandingMisses()),
		series("dwsim_run_done"):            1,
	}
	for i, v := range tot.CycleBuckets() {
		want[fmt.Sprintf("dwsim_cycle_bucket_total{%s,cause=%q}", labels, wpu.CycleBucketLabels[i])] = v
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %d (printed: %t), machine says %d", name, g, ok, v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected series %s", name)
		}
	}
	if l1.Misses == 0 || l2.Misses == 0 {
		t.Errorf("FFT missed nowhere (L1 %d, L2 %d): the test compares zeros", l1.Misses, l2.Misses)
	}
}
