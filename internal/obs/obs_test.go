package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// synthetic builds a small trace exercising every event kind plus a few
// timeline samples, covering each exporter code path (WPU events with and
// without Mask2, per-L1 rows, shared L2/DRAM rows, the WPU-0-only L2
// counter).
func synthetic() *Trace {
	t := New(100)
	kinds := []struct {
		k     EventKind
		unit  int
		warp  int
		pc    int
		mask  uint64
		mask2 uint64
		addr  uint64
	}{
		{EvBranchSubdiv, 0, 1, 12, 0x00ff, 0xff00, 0},
		{EvMemSubdiv, 0, 1, 14, 0x000f, 0x00f0, 0},
		{EvRevive, 1, 2, 20, 0x0003, 0x000c, 0},
		{EvPCMerge, 1, 2, 24, 0x0003, 0x000c, 0},
		{EvWaitMerge, 2, 0, 30, 0x00f0, 0x0f00, 0},
		{EvScopeArrive, 2, 0, 34, 0x00ff, 0xffff, 0},
		{EvScopeMerge, 2, 0, 34, 0xffff, 0, 0},
		{EvSlip, 3, 3, 40, 0x5555, 0xaaaa, 0},
		{EvSlipMerge, 3, 3, 44, 0x5555, 0xaaaa, 0},
		{EvWSTRefusal, 0, -1, -1, 0, 0, 0},
		{EvL1Miss, 1, -1, -1, 0, 0, 0x1a80},
		{EvL1MSHRFull, 1, -1, -1, 0, 0, 0x1b00},
		{EvL2Miss, 1, -1, -1, 0, 0, 0x1a80},
		{EvDRAMFetch, -1, -1, -1, 0, 0, 0x1a80},
		{EvDRAMWriteback, -1, -1, -1, 0, 0, 0x0c00},
		{EvBranchDiverge, 0, 1, 12, 0x00ff, 0xff00, 0},
		{EvMemBoundExceeded, 0, 1, 14, 0x00ff, 3, 0},
	}
	for i, e := range kinds {
		t.Emit(Event{Cycle: uint64(10 * (i + 1)), Kind: e.k, Unit: e.unit,
			Warp: e.warp, PC: e.pc, Mask: e.mask, Mask2: e.mask2, Addr: e.addr})
	}
	for _, wpu := range []int{0, 1} {
		t.AddSample(Sample{Cycle: 100, WPU: wpu, Busy: 60, StallMem: 30,
			StallOther: 10, Issued: 60, WidthAccum: 480, WSTOcc: 3,
			Resident: 2, SlotWaiters: 1, L1MSHR: 4, L2MSHR: 7})
		t.AddSample(Sample{Cycle: 200, WPU: wpu, Busy: 80, StallMem: 15,
			StallOther: 5, Issued: 80, WidthAccum: 960, WSTOcc: 1,
			Resident: 1, SlotWaiters: 0, L1MSHR: 0, L2MSHR: 0})
	}
	return t
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file; if the schema change is intended rerun with -update\ngot:\n%s", name, got)
	}
}

func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kind %d has empty or duplicate name %q", k, name)
		}
		seen[name] = true
		b, err := json.Marshal(k)
		if err != nil || string(b) != `"`+name+`"` {
			t.Errorf("kind %d marshals to %s, %v", k, b, err)
		}
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	// The document must be plain valid JSON with the trace-event envelope
	// Perfetto expects.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M", "i", "C":
		default:
			t.Errorf("unexpected phase %q in %v", ev["ph"], ev)
		}
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())
}

func TestEventsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEventsJSON(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string           `json:"schema"`
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("events JSON is not valid: %v", err)
	}
	if doc.Schema != "dwsim-trace-v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if want := int(numEventKinds); len(doc.Events) != want {
		t.Errorf("events = %d, want %d", len(doc.Events), want)
	}
	checkGolden(t, "events.golden.json", buf.Bytes())
}

func TestEmptyTraceExportsAreValid(t *testing.T) {
	for _, fn := range []func(*Trace) ([]byte, error){
		func(tr *Trace) ([]byte, error) {
			var b bytes.Buffer
			err := WriteChromeTrace(&b, tr)
			return b.Bytes(), err
		},
		func(tr *Trace) ([]byte, error) {
			var b bytes.Buffer
			err := WriteEventsJSON(&b, tr)
			return b.Bytes(), err
		},
	} {
		out, err := fn(New(0))
		if err != nil {
			t.Fatal(err)
		}
		var any any
		if err := json.Unmarshal(out, &any); err != nil {
			t.Errorf("empty-trace export is not valid JSON: %v\n%s", err, out)
		}
	}
}

func TestCountByKind(t *testing.T) {
	tr := synthetic()
	counts := tr.CountByKind()
	if len(counts) != int(numEventKinds) {
		t.Fatalf("CountByKind covers %d kinds, want %d", len(counts), numEventKinds)
	}
	for name, n := range counts {
		if n != 1 {
			t.Errorf("kind %s counted %d times, want 1", name, n)
		}
	}
}

// TestAppendJSONMatchesMarshal pins the hand-written encoders to
// encoding/json: every kind (one past the named ones included), the -1 "no
// warp context" fields, full-width masks, and a seeded random sweep.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	check := func(v any, got []byte) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
	for k := EventKind(0); k <= numEventKinds; k++ {
		e := Event{Cycle: 7, Kind: k, Unit: -1, Warp: -1, PC: -1, Mask: math.MaxUint64, Mask2: math.MaxUint64, Addr: math.MaxUint64}
		check(e, e.AppendJSON(nil))
	}
	check(Event{}, Event{}.AppendJSON(nil))
	check(Sample{}, Sample{}.AppendJSON(nil))
	neg := Sample{Cycle: math.MaxUint64, WPU: -1, WSTOcc: -1, Resident: -1, SlotWaiters: -1, L1MSHR: -1, L2MSHR: -1}
	check(neg, neg.AppendJSON(nil))

	rng := rand.New(rand.NewSource(1))
	buf := []byte("prefix ") // AppendJSON appends: what is already there stays
	for i := 0; i < 2000; i++ {
		e := Event{rng.Uint64(), EventKind(rng.Intn(256)), rng.Intn(64) - 1, rng.Intn(64) - 1,
			int(rng.Int63()) - 1, rng.Uint64(), rng.Uint64() >> uint(rng.Intn(64)), rng.Uint64()}
		buf = e.AppendJSON(buf[:7])
		check(e, buf[7:])
		s := Sample{rng.Uint64(), rng.Intn(8), rng.Uint64(), rng.Uint64() >> uint(rng.Intn(64)), rng.Uint64(),
			rng.Uint64(), rng.Uint64(), rng.Intn(64), rng.Intn(64), rng.Intn(64), -rng.Intn(64), int(rng.Int63())}
		buf = s.AppendJSON(buf[:7])
		check(s, buf[7:])
		if string(buf[:7]) != "prefix " {
			t.Fatal("AppendJSON overwrote the bytes it was handed")
		}
	}
}
