package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span identifies one recorded span; noSpan is the parent of a root span
// and what a nil recorder hands out.
type span int

const noSpan span = -1

// spanRec is one span: a name, when it started and ended (since the
// recorder was made), the span that caused it, and the op whose spans it
// belongs with. Lane is the client or worker it ran on.
type spanRec struct {
	Name       string
	Start, End time.Duration
	Parent     span
	Op         int
	Lane       int
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the untraced run calls the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginOp opens a root span on the given lane.
func (r *recorder) beginOp(name string, lane int) span {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{Name: name, Start: now, End: -1, Parent: noSpan, Op: id, Lane: lane})
	return span(id)
}

// begin opens a child of parent.
func (r *recorder) begin(parent span, name string) span {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	r.spans = append(r.spans, spanRec{Name: name, Start: now, End: -1, Parent: parent, Op: p.Op, Lane: p.Lane})
	return span(len(r.spans) - 1)
}

func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[s].End = now
	r.mu.Unlock()
}

// childDuration sums the op's direct children called name.
func (r *recorder) childDuration(op span, name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans[op+1:] {
		if s.Parent == op && s.End >= 0 && (s.Name == name || strings.HasPrefix(s.Name, name+"[")) {
			d += s.End - s.Start
		}
	}
	return d
}

// retag renames a span and moves it under another parent: a poll that
// came back with the result is the job's serve.result_get.
func (r *recorder) retag(s span, name string, parent span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[s].Name, r.spans[s].Parent = name, parent
	r.mu.Unlock()
}

// durationsMs returns the duration of every finished span called name.
func (r *recorder) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Children may overlap each other (two
// clients under one phase) and may stick out of the parent (a child ended
// late); overlaps count once and the excess is clipped.
func selfTimes(spans []spanRec) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent == noSpan || s.End < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// childCoverage is the share of the root spans called name that their
// child spans account for.
func (r *recorder) childCoverage(name string) float64 {
	self := selfTimes(r.spans)
	var total, own time.Duration
	for i, s := range r.spans {
		if s.Name == name && s.Parent == noSpan && s.End >= 0 {
			total += s.End - s.Start
			own += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(own)/float64(total)
}

// writeChromeTrace flushes the spans as Chrome trace-event JSON (complete
// "X" events; loads in Perfetto like the simulator's own traces). The
// process is the workload, the thread the lane.
func (r *recorder) writeChromeTrace(w io.Writer, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	self := selfTimes(r.spans)
	evs := make([]any, 0, len(r.spans)+1)
	evs = append(evs, map[string]any{"name": "process_name", "ph": "M", "pid": 1,
		"args": map[string]string{"name": "bench " + workload}})
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"op": s.Op, "parent": int(s.Parent), "self_us": int(us(self[i]))}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
