package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSpanSelfTime(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []spanRec{
		0: {Name: "op", Start: 0, End: msd(100), Parent: noSpan},
		// two children that overlap each other: [10,40] ∪ [30,60] covers 50
		1: {Name: "a", Start: msd(10), End: msd(40), Parent: 0},
		2: {Name: "b", Start: msd(30), End: msd(60), Parent: 0},
		// a grandchild takes from its parent only
		3: {Name: "a.inner", Start: msd(15), End: msd(25), Parent: 1},
		// a child that outlives its parent is clipped at the parent's end
		4: {Name: "late", Start: msd(90), End: msd(130), Parent: 0},
		// an unfinished span has no self time and covers nothing
		5: {Name: "open", Start: msd(70), End: -1, Parent: 0},
		// a child wholly inside another child's interval adds nothing
		6: {Name: "nested", Start: msd(32), End: msd(38), Parent: 0},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{msd(40), msd(20), msd(30), msd(10), msd(40), 0, msd(6)} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
}

func TestRecorderTreeAndExport(t *testing.T) {
	var off *recorder // the untraced run records nothing and must not crash
	off.end(off.begin(off.beginOp("op", 0), "child"))

	r := newRecorder()
	op := r.beginOp("op", 3)
	a := r.begin(op, "sim.run")
	k := r.begin(a, "sim.run_kernel[0]")
	r.end(k)
	r.end(a)
	r.end(op)
	if got := r.spans[k]; got.Op != int(op) || got.Lane != 3 || got.Parent != a {
		t.Errorf("grandchild = %+v: want the op id and lane of its root", got)
	}
	if c := r.childCoverage("op"); c < 0 || c > 1 {
		t.Errorf("coverage = %v", c)
	}
	var buf bytes.Buffer
	if err := r.writeChromeTrace(&buf, "w"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 { // process name + three spans
		t.Errorf("%d trace events, want 4", len(doc.TraceEvents))
	}
}
