package obs

import (
	"strings"
	"testing"
)

func TestHistRecordBucketBounds(t *testing.T) {
	var h Hist
	// Each value must land in the bucket whose [BucketLo(i), BucketLo(i+1))
	// range contains it.
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {^uint64(0), 63},
	}
	for _, c := range cases {
		before := h.Buckets[c.bucket]
		h.Record(c.v)
		if h.Buckets[c.bucket] != before+1 {
			t.Errorf("Record(%d) did not land in bucket %d", c.v, c.bucket)
		}
		if c.bucket < 63 && c.v >= BucketLo(c.bucket+1) {
			t.Errorf("case %d: value outside its bucket's range", c.v)
		}
		if c.v < BucketLo(c.bucket) {
			t.Errorf("case %d: value below bucket lower bound", c.v)
		}
	}
	if h.N != uint64(len(cases)) {
		t.Fatalf("N = %d, want %d", h.N, len(cases))
	}
	if h.MinV != 0 || h.MaxV != ^uint64(0) {
		t.Fatalf("min/max = %d/%d", h.MinV, h.MaxV)
	}
}

func TestHistMeanAndMerge(t *testing.T) {
	var a, b Hist
	a.Record(10)
	a.Record(20)
	b.Record(2)
	if got := a.Mean(); got != 15 {
		t.Fatalf("mean = %v", got)
	}
	a.Merge(&b)
	if a.N != 3 || a.Total != 32 || a.MinV != 2 || a.MaxV != 20 {
		t.Fatalf("after merge: N=%d Total=%d min=%d max=%d", a.N, a.Total, a.MinV, a.MaxV)
	}
	// Merging an empty histogram is a no-op, including on min/max.
	var empty Hist
	a.Merge(&empty)
	if a.N != 3 || a.MinV != 2 {
		t.Fatal("merge of empty histogram changed state")
	}
	// Merging into an empty histogram adopts the source's min.
	var c Hist
	c.Merge(&a)
	if c.MinV != 2 || c.N != 3 {
		t.Fatalf("merge into empty: min=%d N=%d", c.MinV, c.N)
	}
}

func TestHistSetEachOrder(t *testing.T) {
	var s HistSet
	var names []string
	s.Each(func(name string, h *Hist) { names = append(names, name) })
	want := []string{"l1-hit", "l2-service", "dram-service",
		"l1-mshr-residency", "l2-mshr-residency", "split-lifetime", "wait-merge-wait"}
	if len(names) != len(want) {
		t.Fatalf("Each visited %d histograms, want %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Each order %v, want %v", names, want)
		}
	}
}

func TestHistSetMerge(t *testing.T) {
	var a, b HistSet
	a.L1Hit.Record(3)
	b.L1Hit.Record(5)
	b.SplitLife.Record(100)
	a.Merge(&b)
	if a.L1Hit.N != 2 || a.L1Hit.Total != 8 {
		t.Fatalf("L1Hit after merge: N=%d Total=%d", a.L1Hit.N, a.L1Hit.Total)
	}
	if a.SplitLife.N != 1 || a.SplitLife.MaxV != 100 {
		t.Fatal("SplitLife not merged")
	}
	if a.DRAMServe.N != 0 {
		t.Fatal("untouched histogram gained samples")
	}
}

func TestWriteHistCSVSkipsEmpty(t *testing.T) {
	tr := New(0)
	tr.Hists.L1Hit.Record(3)
	tr.Hists.L1Hit.Record(4)
	var sb strings.Builder
	if err := WriteHistCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "hist,bucket,lo_cycles,hi_cycles,count,n,total,min,max" {
		t.Fatalf("header = %q", lines[0])
	}
	// Only l1-hit recorded: two occupied buckets (3 → bucket 2, 4 → bucket 3).
	if len(lines) != 3 {
		t.Fatalf("%d rows, want 3:\n%s", len(lines), sb.String())
	}
	if lines[1] != "l1-hit,2,2,4,1,2,7,3,4" {
		t.Fatalf("row = %q", lines[1])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "l1-hit,") {
			t.Fatalf("unexpected row for an empty histogram: %q", l)
		}
	}
}

// TestHistRecordAllocFree pins the record path at 0 allocations — the
// property that lets the memory system record every request under tracing.
func TestHistRecordAllocFree(t *testing.T) {
	var h Hist
	v := uint64(0)
	if allocs := testing.AllocsPerRun(10000, func() { h.Record(v & 1023); v++ }); allocs != 0 {
		t.Fatalf("Hist.Record allocated %.2f times per call, want 0", allocs)
	}
}

// BenchmarkHistRecord times the record path; TestHistRecordAllocFree holds
// it at 0 allocs/op.
func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i) & 1023)
	}
	if h.N == 0 {
		b.Fatal("no samples recorded")
	}
}
