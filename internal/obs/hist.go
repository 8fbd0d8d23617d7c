package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
)

// Latency histograms. Hist is a fixed-size log2-bucketed counter array:
// Record is allocation-free (a few integer ops on an embedded array), so
// the memory system and WPU can record every request's latency when a
// Trace is attached while untraced runs pay only the usual nil check.
//
// Bucket i counts values in [2^(i-1), 2^i); bucket 0 counts exactly {0}
// and the last bucket absorbs everything at or above 2^62. Lower bucket
// bounds are therefore 0, 1, 2, 4, 8, ... — BucketLo reports them.

// Hist is one allocation-free log2 histogram.
type Hist struct {
	Buckets [64]uint64 `json:"buckets"`
	N       uint64     `json:"n"`     // recorded values
	Total   uint64     `json:"total"` // sum of recorded values
	MinV    uint64     `json:"min"`   // smallest recorded value (0 when N == 0)
	MaxV    uint64     `json:"max"`   // largest recorded value
}

// Record adds one value. It must stay allocation-free:
// TestHistRecordAllocFree pins it at 0 allocations per call.
func (h *Hist) Record(v uint64) {
	i := bits.Len64(v)
	if i > 63 {
		i = 63
	}
	h.Buckets[i]++
	h.N++
	h.Total += v
	if h.N == 1 || v < h.MinV {
		h.MinV = v
	}
	if v > h.MaxV {
		h.MaxV = v
	}
}

// Empty reports whether nothing was recorded.
func (h *Hist) Empty() bool { return h.N == 0 }

// Mean returns the arithmetic mean of the recorded values.
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Total) / float64(h.N)
}

// Merge accumulates o into h.
func (h *Hist) Merge(o *Hist) {
	if o.N == 0 {
		return
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	if h.N == 0 || o.MinV < h.MinV {
		h.MinV = o.MinV
	}
	if o.MaxV > h.MaxV {
		h.MaxV = o.MaxV
	}
	h.N += o.N
	h.Total += o.Total
}

// BucketLo returns the inclusive lower bound of bucket i.
func BucketLo(i int) uint64 {
	if i == 0 {
		return 0
	}
	return uint64(1) << uint(i-1)
}

// HistSet is the fixed collection of histograms one simulation records.
// The fields are addressed directly from the hot paths (w.trace.Hists.X);
// Each visits them in a fixed order so every exporter is deterministic.
type HistSet struct {
	L1Hit     Hist `json:"l1_hit"`      // L1 hit service latency (incl. bank queuing)
	L2Serve   Hist `json:"l2_serve"`    // L1-fill round trip served by the L2
	DRAMServe Hist `json:"dram_serve"`  // L1-fill round trip served through DRAM
	L1MSHRRes Hist `json:"l1_mshr_res"` // L1 MSHR residency (allocation to release)
	L2MSHRRes Hist `json:"l2_mshr_res"` // L2 MSHR residency (allocation to fill)
	SplitLife Hist `json:"split_life"`  // warp-split lifetime (creation to retirement)
	// WaitMergeWait is how long a suspended group had waited when a
	// wait-merge absorbed it (§4.5).
	WaitMergeWait Hist `json:"wait_merge_wait"`
}

// Each visits every histogram with its exported name, in declaration
// order. The names are part of the export schemas (run-metrics JSON, the
// dwstrace CSV, the Perfetto counter tracks).
func (s *HistSet) Each(fn func(name string, h *Hist)) {
	fn("l1-hit", &s.L1Hit)
	fn("l2-service", &s.L2Serve)
	fn("dram-service", &s.DRAMServe)
	fn("l1-mshr-residency", &s.L1MSHRRes)
	fn("l2-mshr-residency", &s.L2MSHRRes)
	fn("split-lifetime", &s.SplitLife)
	fn("wait-merge-wait", &s.WaitMergeWait)
}

// Merge accumulates o into s, histogram by histogram.
func (s *HistSet) Merge(o *HistSet) {
	s.Each(func(name string, h *Hist) {
		var src *Hist
		o.Each(func(n string, oh *Hist) {
			if n == name {
				src = oh
			}
		})
		h.Merge(src)
	})
}

// WriteHistCSV renders every non-empty histogram as CSV rows (cmd/dwstrace
// -format hist): one row per occupied bucket, with the bucket's inclusive
// lower bound and exclusive upper bound in cycles.
func WriteHistCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("hist,bucket,lo_cycles,hi_cycles,count,n,total,min,max\n"); err != nil {
		return err
	}
	var err error
	t.Hists.Each(func(name string, h *Hist) {
		if err != nil || h.Empty() {
			return
		}
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			hi := ""
			if i < 63 {
				hi = strconv.FormatUint(BucketLo(i+1), 10)
			}
			_, err = fmt.Fprintf(bw, "%s,%d,%d,%s,%d,%d,%d,%d,%d\n",
				name, i, BucketLo(i), hi, c, h.N, h.Total, h.MinV, h.MaxV)
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
