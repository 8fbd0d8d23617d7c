package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for the canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pb) packed(field int, vs ...uint64) {
	var in pb
	for _, v := range vs {
		in.varint(v)
	}
	p.bytes(field, in.Bytes())
}

// cannedProfile encodes stacks (leaf first, function names) with their CPU
// nanoseconds the way runtime/pprof does: one Location and one Function
// per distinct name, sample values [count, nanos].
func cannedProfile(stacks [][]string, nanos []uint64) []byte {
	var out pb
	strs := []string{""}
	ids := map[string]uint64{}
	for _, st := range stacks {
		for _, fn := range st {
			if _, ok := ids[fn]; !ok {
				strs = append(strs, fn)
				ids[fn] = uint64(len(strs) - 1)
			}
		}
	}
	for i, st := range stacks {
		var s pb
		locs := make([]uint64, len(st))
		for j, fn := range st {
			locs[j] = ids[fn]
		}
		s.packed(1, locs...)
		s.packed(2, 1, nanos[i])
		out.bytes(2, s.Bytes())
	}
	for fn, id := range ids {
		var line, loc, f pb
		line.uint(1, id)
		loc.uint(1, id)
		loc.bytes(4, line.Bytes())
		out.bytes(4, loc.Bytes())
		f.uint(1, id)
		f.uint(2, id) // name: index into the string table
		_ = fn
		out.bytes(5, f.Bytes())
	}
	for _, s := range strs {
		out.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(out.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestProfileLayerAttribution(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/wpu.(*WPU).issueOne", "repro/internal/wpu.(*WPU).Tick", "repro/internal/sim.(*System).run", "main.runCold"},
		{"repro/internal/isa.ExecALULanes", "repro/internal/wpu.(*WPU).issueOne", "repro/internal/sim.(*System).run"},
		// a shared tag-store helper is charged to the cache that called it
		{"repro/internal/mem.(*store).lookup", "repro/internal/mem.(*L1).AccessEvent", "repro/internal/wpu.(*WPU).issueMem"},
		{"repro/internal/mem.(*store).lookup", "repro/internal/mem.(*L2).Request", "repro/internal/mem.(*l1ReqHop).HandleEvent", "repro/internal/engine.(*Queue).RunUntil"},
		{"repro/internal/mem.(*DRAM).FetchEvent", "repro/internal/mem.(*L2).Request"},
		{"repro/internal/mem.(*Channel).SendEvent", "repro/internal/mem.(*L1).sendRequest"},
		{"repro/internal/mem.(*Memory).Read", "repro/internal/wpu.(*WPU).issueMem"},
		{"repro/internal/engine.(*Queue).RunUntil", "repro/internal/sim.(*System).run"},
		// allocation is runtime time whoever asked for it
		{"runtime.mallocgc", "runtime.newobject", "repro/internal/wpu.(*WPU).newSplit"},
		{"runtime.gcBgMarkWorker"},
		// the standard library is charged to the layer that called it
		{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "repro/internal/report.(*Store).Load", "main.runReport"},
		{"main.median", "main.runCore"},
	}
	nanos := []uint64{30, 10, 8, 4, 2, 2, 4, 10, 12, 8, 6, 4}
	samples, err := parseProfile(cannedProfile(stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	for i, s := range samples {
		if len(s.stack) != len(stacks[i]) || s.stack[0] != stacks[i][0] || s.nanos != int64(nanos[i]) {
			t.Fatalf("sample %d = %+v, want %v × %d", i, s, stacks[i], nanos[i])
		}
	}
	got := cpuShares(samples)
	want := map[string]float64{
		"wpu.cpu_share": 0.30, "isa.cpu_share": 0.10, "mem.cpu_share.l1": 0.08, "mem.cpu_share.l2": 0.04,
		"mem.cpu_share.dram_xbar": 0.04, "mem.cpu_share.funcmem": 0.04, "engine.cpu_share": 0.10,
		shareRuntime: 0.20, "report.cpu_share": 0.06, shareOther: 0.04,
	}
	var sum float64
	for _, layer := range shareMetrics {
		sum += got[layer]
		if math.Abs(got[layer]-want[layer]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got[layer], want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// A real profile from this toolchain must decode, whatever it sampled.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 60*time.Millisecond; {
		x += math.Sqrt(float64(time.Now().UnixNano()))
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("parseProfile: %v (x=%v)", err, x)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			t.Errorf("decoded an empty sample: %+v", s)
		}
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage must not parse")
	}
}
