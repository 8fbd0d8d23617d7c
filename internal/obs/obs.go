// Package obs is the simulator's observability layer: a structured event
// trace of the microarchitectural mechanisms the paper studies
// (subdivisions, revivals, merges, slip, cache misses, DRAM traffic) plus
// an interval timeline of per-WPU utilisation and occupancies.
//
// A Trace is a per-System sink. Components (WPU, L1, L2) hold a *Trace
// that is nil when instrumentation is disabled, and every emission site is
// guarded by that nil check, so a run without a sink pays one predictable
// branch per would-be event and allocates nothing. Because each System is
// driven by a single goroutine, events and samples are appended in
// deterministic simulation order and the exporters below are byte-stable
// across runs and across report.Session parallelism levels.
//
// This replaces the former WPU_TRACE environment global in internal/wpu,
// which was process-wide and raced under the concurrent Session executor.
package obs

import (
	"fmt"
	"strconv"
)

// EventKind enumerates the traced microarchitectural events. The mapping
// to the paper's mechanisms is documented in DESIGN.md ("Observability").
type EventKind uint8

const (
	// WPU events (§4, §5 of the paper).
	EvBranchSubdiv EventKind = iota // warp-split forked at a divergent branch (§4.2)
	EvMemSubdiv                     // warp-split forked at a divergent memory access (§5.4)
	EvRevive                        // suspended group re-split when misses partially returned (§5.2)
	EvPCMerge                       // PC-based re-convergence of ready siblings (§4.5)
	EvWaitMerge                     // suspended groups re-united at the same PC (§4.5)
	EvScopeArrive                   // split parked at its sync scope (§4.4)
	EvScopeMerge                    // sync scope completed; frozen group resumed (§4.4)
	EvSlip                          // hitting threads ran ahead under adaptive slip (§5.7)
	EvSlipMerge                     // fall-behind or parked group re-absorbed (§5.7)
	EvWSTRefusal                    // subdivision refused: warp-split table full (§5.6)

	// Memory-system events (§3.3).
	EvL1Miss        // primary L1 miss (MSHR allocation)
	EvL1MSHRFull    // L1 request queued because every MSHR was busy
	EvL2Miss        // L2 miss (fetch from DRAM)
	EvDRAMFetch     // DRAM line fetch
	EvDRAMWriteback // DRAM writeback of a dirty line

	// Front-end events.
	EvBranchDiverge // conditional branch whose lanes disagreed (Mask/Mask2 = taken/not-taken)

	// Static-analysis concordance events.
	EvMemBoundExceeded // access exceeded its static worst-case transaction bound (Mask2 = observed line count)

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvBranchSubdiv:     "branch-subdiv",
	EvMemSubdiv:        "mem-subdiv",
	EvRevive:           "revive",
	EvPCMerge:          "pc-merge",
	EvWaitMerge:        "wait-merge",
	EvScopeArrive:      "scope-arrive",
	EvScopeMerge:       "scope-merge",
	EvSlip:             "slip",
	EvSlipMerge:        "slip-merge",
	EvWSTRefusal:       "wst-refusal",
	EvL1Miss:           "l1-miss",
	EvL1MSHRFull:       "l1-mshr-full",
	EvL2Miss:           "l2-miss",
	EvDRAMFetch:        "dram-fetch",
	EvDRAMWriteback:    "dram-writeback",
	EvBranchDiverge:    "branch-diverge",
	EvMemBoundExceeded: "mem-bound-exceeded",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event-%d", int(k))
}

// MarshalJSON renders the kind as its symbolic name so exported traces are
// self-describing and stable across reorderings of the constant block.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Event is one traced occurrence. Unit is the emitting WPU or L1 ID, or -1
// for shared units (L2, DRAM). Warp and PC are -1 when the event has no
// warp context (memory-system events, WST refusals). Mask/Mask2 carry the
// kind-specific thread masks (e.g. taken/not-taken for EvBranchSubdiv,
// hit/miss for EvMemSubdiv); Addr is the cache-line address for memory
// events.
type Event struct {
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"kind"`
	Unit  int       `json:"unit"`
	Warp  int       `json:"warp"`
	PC    int       `json:"pc"`
	Mask  uint64    `json:"mask"`
	Mask2 uint64    `json:"mask2"`
	Addr  uint64    `json:"addr"`
}

// AppendJSON appends exactly the bytes json.Marshal(e) produces. Event and
// Sample are flat integer structs, so the encoding is a fixed key sequence
// around strconv; the hot emitters (the dwsimd stream publisher, one call
// per event on the simulation goroutine) use it to skip reflection and the
// per-event allocation. TestAppendJSONMatchesMarshal pins the equality.
func (e Event) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"cycle":`...), e.Cycle, 10)
	b = append(append(b, `,"kind":"`...), e.Kind.String()...)
	b = strconv.AppendInt(append(b, `","unit":`...), int64(e.Unit), 10)
	b = strconv.AppendInt(append(b, `,"warp":`...), int64(e.Warp), 10)
	b = strconv.AppendInt(append(b, `,"pc":`...), int64(e.PC), 10)
	b = strconv.AppendUint(append(b, `,"mask":`...), e.Mask, 10)
	b = strconv.AppendUint(append(b, `,"mask2":`...), e.Mask2, 10)
	b = strconv.AppendUint(append(b, `,"addr":`...), e.Addr, 10)
	return append(b, '}')
}

// Sample is one interval-timeline row for one WPU: the busy/stall split
// and issue counters are deltas over the sampling interval; the occupancy
// fields are instantaneous at the sample cycle.
type Sample struct {
	Cycle uint64 `json:"cycle"`
	WPU   int    `json:"wpu"`

	Busy       uint64 `json:"busy"`
	StallMem   uint64 `json:"stall_mem"`
	StallOther uint64 `json:"stall_other"`
	Issued     uint64 `json:"issued"`
	WidthAccum uint64 `json:"width_accum"` // sum of active widths over the interval

	WSTOcc      int `json:"wst_occupancy"`   // live scheduling entities
	Resident    int `json:"resident_splits"` // scheduler slots in use
	SlotWaiters int `json:"slot_waiters"`    // splits queued for a slot
	L1MSHR      int `json:"l1_mshr"`         // outstanding L1 misses
	L2MSHR      int `json:"l2_mshr"`         // outstanding L2 misses (shared)
}

// AppendJSON appends exactly the bytes json.Marshal(s) produces (see
// Event.AppendJSON).
func (s Sample) AppendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"cycle":`...), s.Cycle, 10)
	b = strconv.AppendInt(append(b, `,"wpu":`...), int64(s.WPU), 10)
	b = strconv.AppendUint(append(b, `,"busy":`...), s.Busy, 10)
	b = strconv.AppendUint(append(b, `,"stall_mem":`...), s.StallMem, 10)
	b = strconv.AppendUint(append(b, `,"stall_other":`...), s.StallOther, 10)
	b = strconv.AppendUint(append(b, `,"issued":`...), s.Issued, 10)
	b = strconv.AppendUint(append(b, `,"width_accum":`...), s.WidthAccum, 10)
	b = strconv.AppendInt(append(b, `,"wst_occupancy":`...), int64(s.WSTOcc), 10)
	b = strconv.AppendInt(append(b, `,"resident_splits":`...), int64(s.Resident), 10)
	b = strconv.AppendInt(append(b, `,"slot_waiters":`...), int64(s.SlotWaiters), 10)
	b = strconv.AppendInt(append(b, `,"l1_mshr":`...), int64(s.L1MSHR), 10)
	b = strconv.AppendInt(append(b, `,"l2_mshr":`...), int64(s.L2MSHR), 10)
	return append(b, '}')
}

// MeanWidth returns the mean SIMD width over the sample's interval.
func (s Sample) MeanWidth() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.WidthAccum) / float64(s.Issued)
}

// Trace is the per-System observability sink.
type Trace struct {
	// Interval is the timeline sampling period in cycles; 0 disables the
	// sampler (events are still recorded).
	Interval uint64

	Events  []Event
	Samples []Sample

	// Hists are the latency histograms (see hist.go). Embedded by value so
	// a recording is a direct array increment with no pointer chasing.
	Hists HistSet
}

// New returns an empty sink sampling the timeline every interval cycles.
func New(interval uint64) *Trace { return &Trace{Interval: interval} }

// Emit appends one event. Callers nil-check the Trace pointer first; Emit
// itself stays trivial so the enabled path is a single append.
func (t *Trace) Emit(e Event) { t.Events = append(t.Events, e) }

// AddSample appends one timeline row.
func (t *Trace) AddSample(s Sample) { t.Samples = append(t.Samples, s) }

// CountByKind returns how many events of each kind were recorded.
func (t *Trace) CountByKind() map[string]uint64 {
	m := make(map[string]uint64)
	for _, e := range t.Events {
		m[e.Kind.String()]++
	}
	return m
}
