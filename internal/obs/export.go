package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Exporters. Both write one JSON object per line inside their arrays so
// traces diff cleanly, and both are deterministic: struct fields marshal
// in declaration order and map-valued args marshal with sorted keys.

// chromeEvent is one entry of the Chrome trace-event JSON format
// (consumed by Perfetto and chrome://tracing). ts is in microseconds; we
// map one simulated cycle to one microsecond.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Thread-row IDs in the exported trace: WPUs occupy their own IDs, L1s sit
// at 100+id, and the shared L2/DRAM get fixed rows.
const (
	chromeTIDL1Base = 100
	chromeTIDL2     = 200
	chromeTIDDRAM   = 201
	// chromeTIDHist is the row carrying the latency-histogram counter
	// tracks: one track per non-empty histogram, with ts = the bucket's
	// lower bound in cycles and the counter value = the bucket count.
	chromeTIDHist = 300
)

func (e Event) chromeTID() int {
	switch e.Kind {
	case EvL1Miss, EvL1MSHRFull:
		return chromeTIDL1Base + e.Unit
	case EvL2Miss:
		return chromeTIDL2
	case EvDRAMFetch, EvDRAMWriteback:
		return chromeTIDDRAM
	default:
		return e.Unit
	}
}

func (e Event) chromeArgs() map[string]any {
	args := make(map[string]any, 4)
	switch e.Kind {
	case EvL1Miss, EvL1MSHRFull, EvDRAMFetch, EvDRAMWriteback:
		args["addr"] = fmt.Sprintf("%#x", e.Addr)
	case EvL2Miss:
		args["addr"] = fmt.Sprintf("%#x", e.Addr)
		args["from_l1"] = e.Unit
	default:
		args["warp"] = e.Warp
		args["pc"] = e.PC
		args["mask"] = fmt.Sprintf("%#x", e.Mask)
		if e.Mask2 != 0 {
			args["mask2"] = fmt.Sprintf("%#x", e.Mask2)
		}
	}
	return args
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON: one
// instant event per recorded Event and one set of counter tracks per
// timeline sample. The output loads directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	put := func(v any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		return enc(v)
	}

	// Thread-name metadata for every row the trace will use.
	names := map[int]string{}
	for _, e := range t.Events {
		tid := e.chromeTID()
		if _, ok := names[tid]; ok {
			continue
		}
		switch {
		case tid == chromeTIDL2:
			names[tid] = "L2"
		case tid == chromeTIDDRAM:
			names[tid] = "DRAM"
		case tid >= chromeTIDL1Base:
			names[tid] = fmt.Sprintf("L1 %d", tid-chromeTIDL1Base)
		default:
			names[tid] = fmt.Sprintf("WPU %d", tid)
		}
	}
	for _, s := range t.Samples {
		if _, ok := names[s.WPU]; !ok {
			names[s.WPU] = fmt.Sprintf("WPU %d", s.WPU)
		}
	}
	anyHist := false
	t.Hists.Each(func(_ string, h *Hist) {
		if !h.Empty() {
			anyHist = true
		}
	})
	if anyHist {
		names[chromeTIDHist] = "latency histograms"
	}
	tids := make([]int, 0, len(names))
	for tid := range names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	if err := put(chromeEvent{Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "dws machine"}}); err != nil {
		return err
	}
	for _, tid := range tids {
		if err := put(chromeEvent{Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": names[tid]}}); err != nil {
			return err
		}
	}

	for _, e := range t.Events {
		if err := put(chromeEvent{
			Name: e.Kind.String(), Ph: "i", TS: e.Cycle,
			PID: 0, TID: e.chromeTID(), S: "t", Args: e.chromeArgs(),
		}); err != nil {
			return err
		}
	}
	for _, s := range t.Samples {
		counters := []chromeEvent{
			{Name: fmt.Sprintf("wst wpu%d", s.WPU), Args: map[string]any{"splits": s.WSTOcc}},
			{Name: fmt.Sprintf("width wpu%d", s.WPU), Args: map[string]any{"mean": s.MeanWidth()}},
			{Name: fmt.Sprintf("busy wpu%d", s.WPU), Args: map[string]any{"frac": s.BusyFrac()}},
			{Name: fmt.Sprintf("l1 mshr %d", s.WPU), Args: map[string]any{"outstanding": s.L1MSHR}},
		}
		if s.WPU == 0 {
			counters = append(counters, chromeEvent{Name: "l2 mshr",
				Args: map[string]any{"outstanding": s.L2MSHR}})
		}
		for _, c := range counters {
			c.Ph, c.TS, c.PID, c.TID = "C", s.Cycle, 0, s.WPU
			if err := put(c); err != nil {
				return err
			}
		}
	}
	// Latency histograms as counter tracks: the time axis is reused as the
	// bucket axis (ts = the bucket's lower bound in cycles), so Perfetto
	// renders each distribution as a step plot on its own track.
	var histErr error
	t.Hists.Each(func(name string, h *Hist) {
		if histErr != nil || h.Empty() {
			return
		}
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			histErr = put(chromeEvent{
				Name: "hist " + name, Ph: "C", TS: BucketLo(i),
				PID: 0, TID: chromeTIDHist,
				Args: map[string]any{"count": c},
			})
			if histErr != nil {
				return
			}
		}
	})
	if histErr != nil {
		return histErr
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// BusyFrac returns the fraction of the sample's accounted cycles spent
// issuing instructions.
func (s Sample) BusyFrac() float64 {
	total := s.Busy + s.StallMem + s.StallOther
	if total == 0 {
		return 0
	}
	return float64(s.Busy) / float64(total)
}

// WriteEventsJSON writes the raw structured event list as a versioned JSON
// document (cmd/dwstrace -format json), one event per line.
func WriteEventsJSON(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"schema\":\"dwsim-trace-v1\",\"events\":[\n"); err != nil {
		return err
	}
	var line []byte
	for i, e := range t.Events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		line = e.AppendJSON(line[:0])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
