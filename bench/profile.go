package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// standard library has no public reader for it and the benchmark may add
// no dependency, so this file decodes the four messages attribution needs
// (Sample, Location, Line, Function) and the string table.

// profSample is one stack, leaf first with inlined frames expanded, and
// the CPU time observed on it.
type profSample struct {
	stack []string // function names
	nanos int64
}

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

var errProto = errors.New("malformed profile.proto")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number and either a varint value (wire
// type 0) or a length-delimited payload (wire type 2). Fixed-width fields
// are skipped over and reported with a nil payload.
func (p *pbuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return num, val, data, err
}

func (p *pbuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field that arrives either as
// one value or packed into a payload.
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile into its samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarint(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				n, v, d, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, lv, _, err := line.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				n, v, _, err := msg.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{nanos: int64(s.values[len(s.values)-1])} // [count, cpu ns]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d of %d", errProto, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// The layers a CPU sample can be charged to, each named by the metric
// that reports its share. The repo's packages are the layers; mem is split
// by component, and what is in no package is the Go runtime (GC, malloc,
// scheduler) or other (the benchmark's own code, the standard library
// called from it, and the small packages with no share of their own).
const (
	shareRuntime = "host.cpu_share.runtime"
	shareOther   = "host.cpu_share.other"
)

var shareMetrics = []string{
	"engine.cpu_share", "mem.cpu_share.l1", "mem.cpu_share.l2", "mem.cpu_share.dram_xbar",
	"mem.cpu_share.funcmem", "wpu.cpu_share", "isa.cpu_share", "program.cpu_share",
	"workloads.cpu_share", "sim.cpu_share", "obs.cpu_share", "report.cpu_share",
	shareRuntime, shareOther,
}

// frameLayer classifies one function name, or returns "" when the frame
// alone does not decide (the caller's frame will).
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	switch pkg {
	case "mem":
		recv := strings.ToLower(strings.TrimLeft(sym, "(*"))
		switch {
		case strings.HasPrefix(recv, "l1"):
			return "mem.cpu_share.l1"
		case strings.HasPrefix(recv, "l2"):
			return "mem.cpu_share.l2"
		case strings.HasPrefix(recv, "dram"), strings.HasPrefix(recv, "channel"):
			return "mem.cpu_share.dram_xbar"
		case strings.HasPrefix(recv, "memory"):
			return "mem.cpu_share.funcmem"
		}
		return "" // tag store, MSHR table, hierarchy: shared, so the caller decides
	case "engine", "wpu", "isa", "program", "workloads", "sim", "obs", "report":
		return pkg + ".cpu_share"
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || fn == "gcWriteBarrier"
}

// cpuShares attributes every sample to one layer and returns each layer's
// share of the profile's CPU time, keyed by metric name; the shares sum to
// 1. A sample whose leaf is in the Go runtime is runtime time whoever
// called it (that is where allocation and GC cost shows); otherwise it
// belongs to the nearest frame up the stack that lies in one of the repo's
// packages, so time in the standard library is charged to the layer that
// called it.
func cpuShares(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(shareMetrics))
	for _, m := range shareMetrics {
		shares[m] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			continue
		}
		layer := shareOther
		if isRuntime(s.stack[0]) {
			layer = shareRuntime
		} else {
			for _, fn := range s.stack {
				if l := frameLayer(fn); l != "" {
					layer = l
					break
				}
			}
		}
		shares[layer] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}
