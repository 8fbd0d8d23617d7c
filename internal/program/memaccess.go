// Static memory-access pattern analysis (the memory-side counterpart of
// the branch-divergence analysis in dataflow.go).
//
// The divergence lattice already computes, for every load/store, an exact
// or stride-abstract expression of the effective address as a function of
// the thread id. This file turns that expression into the machine-facing
// facts the paper's §5 memory-divergence machinery cares about:
//
//   - an access class: uniform (one address per warp), coalesced (affine
//     stride fitting ≤ CoalesceLimit cache-line transactions), strided
//     (affine but bounded multi-transaction), or divergent-gather;
//   - the worst-case number of line transactions one full-warp access can
//     issue, exact over all base alignments;
//   - the worst-case bank-conflict degree (how many of those distinct
//     lines can land on one L1 bank);
//   - the cache-line footprint in bytes (span of one warp's lanes).
//
// Soundness contract: a lane with thread id t accesses address
// base + stride·t (mod 2^64) where base is warp-uniform, so for a warp
// whose lanes hold consecutive tids stepping by TidStep the per-lane byte
// step is stride·TidStep. The worst-case transaction count is the maximum
// number of distinct cache lines over every possible base alignment; since
// the line size divides 2^64, the base's line-aligned part only relabels
// line indices (and rotates bank residues), so enumerating the base
// alignment φ ∈ [0, LineBytes) is exhaustive. Any subset of a warp's lanes
// (a warp split) touches a subset of those lines, so the bound is monotone
// under subdivision.
//
// The WPU consumes two projections, both diagnostic: the 2-bit access
// class folded into the decoded stream at Build time, and a per-pc
// transaction bound recomputed for its own width and line size at Launch
// (MemAccessFor) that the trace-backed concordance harness checks against
// observed coalescing.

package program

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// AccessClass is the static coalescing classification of a load/store.
// The numeric values are stable: they are encoded as the 2-bit
// isa.DFMemClass field of the decoded stream and index the per-class
// counters in wpu.Stats.
type AccessClass uint8

const (
	// AccessUniform: one address for every co-executing lane. The whole
	// warp occupies a single line transaction, so intra-warp hit/miss
	// divergence is impossible (§3.2: every lane hits or misses together).
	AccessUniform AccessClass = iota
	// AccessCoalesced: affine in tid with a worst-case transaction count
	// of at most CoalesceLimit — the hardware-coalescing-friendly shape.
	AccessCoalesced
	// AccessStrided: affine in tid but spanning more than CoalesceLimit
	// lines in the worst case (a bounded multi-transaction access).
	AccessStrided
	// AccessGather: no static claim on the address; every lane may touch
	// its own line (the divergent-gather worst case).
	AccessGather

	// NumAccessClasses sizes per-class counter arrays.
	NumAccessClasses = 4
)

// String returns "uniform", "coalesced", "strided", or "gather".
func (c AccessClass) String() string {
	switch c {
	case AccessUniform:
		return "uniform"
	case AccessCoalesced:
		return "coalesced"
	case AccessStrided:
		return "strided"
	default:
		return "gather"
	}
}

// CoalesceLimit is the transaction-count threshold separating coalesced
// from strided accesses: an affine access whose worst case fits in this
// many line transactions still feeds the SIMD group from (almost) one
// line fetch per half-warp, the shape GPU coalescers are built for.
const CoalesceLimit = 2

// MemParams is the machine geometry the per-access bounds are computed
// against. The analysis itself (class and stride) is machine-independent;
// transaction and bank bounds are a pure function of class + stride +
// these parameters, so they can be recomputed for any configuration
// (Program.MemAccessFor).
type MemParams struct {
	// Lanes is the SIMD width (lanes per warp).
	Lanes int
	// LineBytes is the cache-line size transactions are counted in.
	LineBytes int64
	// Banks is the number of L1 banks (line-granular interleaving:
	// bank = lineIndex mod Banks, matching mem.L1).
	Banks int
	// TidStep is the global-tid distance between adjacent lanes of a
	// warp: 1 under block thread distribution (the default), the WPU
	// count under interleaved distribution. 0 means 1.
	TidStep int64
}

// DefaultMemParams is the Table 3 machine (table3.go) under block
// distribution. The checked-in report golden and the MemAccessInfo table
// recorded on every Program use these.
var DefaultMemParams = MemParams{Lanes: Width, LineBytes: LineBytes, Banks: L1Banks, TidStep: 1}

// normalized fills zero fields with the defaults.
func (p MemParams) normalized() MemParams {
	d := DefaultMemParams
	if p.Lanes <= 0 {
		p.Lanes = d.Lanes
	}
	if p.LineBytes <= 0 {
		p.LineBytes = d.LineBytes
	}
	if p.Banks <= 0 {
		p.Banks = d.Banks
	}
	if p.TidStep <= 0 {
		p.TidStep = 1
	}
	return p
}

// MemAccessInfo is one load/store's static access-pattern verdict.
type MemAccessInfo struct {
	PC    int
	Store bool
	// Class is the divergence-lattice verdict on the address (uniform /
	// affine / divergent). Only affine and divergent addresses can produce
	// intra-warp memory divergence (§3.2); a uniform address hits or misses
	// as one.
	Class Class
	// AClass is the coalescing classification under the MemParams the
	// table was computed with.
	AClass AccessClass
	// StrideBytes is the per-tid address stride (mod 2^64, exactly as the
	// machine wraps). Zero for uniform; meaningless for divergent.
	StrideBytes int64
	// Transactions is the worst-case number of distinct cache lines one
	// full-warp access touches, maximised over all base alignments.
	Transactions int
	// BankConflict is the worst-case number of those distinct lines that
	// map to a single L1 bank (1 = provably conflict-free).
	BankConflict int
	// FootprintBytes is the worst-case byte span of one warp's lanes
	// (stride·(Lanes−1) + word size), or -1 when unbounded (gather) or
	// too large to represent exactly.
	FootprintBytes int64
}

// worstAffine returns the worst-case distinct-line (transaction) count
// and per-bank conflict degree for an affine access whose per-lane byte
// step is step (mod 2^64, wrapping exactly like machine addresses).
//
// The enumeration is exhaustive: write the warp-uniform base as
// B = Q·LineBytes + φ. Lane i's line index is (Q + ⌊(φ + step·i mod 2^64)
// / LineBytes⌋) mod (2^64/LineBytes), so the number of distinct lines —
// and, because Q only rotates residues mod Banks, the per-bank multiset
// shape — depends on B only through φ. Maximising over φ ∈ [0, LineBytes)
// therefore covers every base the machine can present. The line size must
// be a power of two of at most 4 KB, as every cache's is (mem.L1 derives
// its masks from it); any other panics.
func worstAffine(step int64, p MemParams) (tx, bank int) {
	L := uint64(p.LineBytes)
	if p.Lanes <= 1 {
		return 1, 1
	}
	if L&(L-1) != 0 || L > 4096 {
		panic(fmt.Sprintf("program: line size %d is not a power of two of at most 4 KB", L))
	}
	ud := uint64(step)
	maxTx, maxBank := 1, 1
	lines := make([]uint64, 0, p.Lanes)
	counts := make([]int, p.Banks)
	for phi := uint64(0); phi < L; phi++ {
		lines = lines[:0]
		for i := 0; i < p.Lanes; i++ {
			v := (phi + ud*uint64(i)) / L
			dup := false
			for _, l := range lines {
				if l == v {
					dup = true
					break
				}
			}
			if !dup {
				lines = append(lines, v)
			}
		}
		if len(lines) > maxTx {
			maxTx = len(lines)
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, l := range lines {
			b := int(l % uint64(p.Banks))
			counts[b]++
			if counts[b] > maxBank {
				maxBank = counts[b]
			}
		}
	}
	return maxTx, maxBank
}

// affineSpan returns |step|·(lanes−1) when it is exactly representable
// within the affine-coefficient window, which is all the footprint math
// needs.
func affineSpan(step int64, lanes int) (int64, bool) {
	a := step
	if a == -a && a != 0 { // MinInt64
		return 0, false
	}
	if a < 0 {
		a = -a
	}
	return mulRange(a, int64(lanes-1))
}

// memInfoFrom computes the full verdict from the machine-independent
// facts. ClassAffine implies stride != 0 (a zero stride classifies as
// uniform in the lattice).
func memInfoFrom(pc int, store bool, cls Class, stride int64, params MemParams) MemAccessInfo {
	p := params.normalized()
	mi := MemAccessInfo{PC: pc, Store: store, Class: cls, StrideBytes: stride}
	switch cls {
	case ClassUniform:
		mi.AClass = AccessUniform
		mi.Transactions = 1
		mi.BankConflict = 1
		mi.FootprintBytes = isa.WordSize
	case ClassAffine:
		step := stride * p.TidStep // wraps mod 2^64, as the machine does
		mi.Transactions, mi.BankConflict = worstAffine(step, p)
		if mi.Transactions <= CoalesceLimit {
			mi.AClass = AccessCoalesced
		} else {
			mi.AClass = AccessStrided
		}
		if span, ok := affineSpan(step, p.Lanes); ok {
			mi.FootprintBytes = span + isa.WordSize
		} else {
			mi.FootprintBytes = -1
		}
	default:
		mi.AClass = AccessGather
		mi.Transactions = p.Lanes
		mi.BankConflict = p.Lanes
		mi.FootprintBytes = -1
	}
	return mi
}

// buildMemAccess derives the per-access table from the divergence
// analysis result, in pc order.
func (p *Program) buildMemAccess(div *divResult, params MemParams) []MemAccessInfo {
	out := make([]MemAccessInfo, 0, len(div.accesses))
	for _, a := range div.accesses {
		cls := a.val.class()
		var stride int64
		if cls != ClassDivergent {
			stride = a.val.stride()
		}
		out = append(out, memInfoFrom(a.pc, a.store, cls, stride, params))
	}
	return out
}

// MemAccesses returns the per-load/store access-pattern table recorded at
// Build time (computed under DefaultMemParams), in pc order.
func (p *Program) MemAccesses() []MemAccessInfo {
	return append([]MemAccessInfo(nil), p.memAccess...)
}

// MemAccessFor recomputes the table for an arbitrary machine geometry
// from the machine-independent facts recorded at Build time. The WPU
// calls this at Launch so the runtime concordance check uses bounds that
// match its own SIMD width, cache-line size, and thread distribution.
func (p *Program) MemAccessFor(params MemParams) []MemAccessInfo {
	out := make([]MemAccessInfo, 0, len(p.memAccess))
	for _, a := range p.memAccess {
		out = append(out, memInfoFrom(a.PC, a.Store, a.Class, a.StrideBytes, params))
	}
	return out
}

// MemAccessReport renders the per-kernel access-pattern verdicts in a
// stable, golden-file-friendly format, mirroring DivergenceReport: a
// summary line followed by one line per load/store with its class,
// stride, and worst-case transaction/bank/footprint bounds under
// DefaultMemParams.
func (p *Program) MemAccessReport() string {
	var sb strings.Builder
	var n [NumAccessClasses]int
	for _, a := range p.memAccess {
		n[a.AClass]++
	}
	d := DefaultMemParams
	fmt.Fprintf(&sb, "kernel %s: %d accesses (%d uniform, %d coalesced, %d strided, %d gather) [%d lanes, %d B lines, %d banks]\n",
		p.Name, len(p.memAccess), n[AccessUniform], n[AccessCoalesced], n[AccessStrided], n[AccessGather],
		d.Lanes, d.LineBytes, d.Banks)
	for _, a := range p.memAccess {
		op := "ld"
		if a.Store {
			op = "st"
		}
		fmt.Fprintf(&sb, "  %s     @pc %-3d %-10s %s\n", op, a.PC, a.AClass, a.boundSummary())
	}
	return sb.String()
}

// boundSummary renders the stride/transaction/bank/footprint columns.
func (a MemAccessInfo) boundSummary() string {
	var sb strings.Builder
	if a.Class == ClassAffine {
		fmt.Fprintf(&sb, "stride=%+dB ", a.StrideBytes)
	}
	fmt.Fprintf(&sb, "tx<=%d bank<=%d", a.Transactions, a.BankConflict)
	if a.FootprintBytes >= 0 {
		fmt.Fprintf(&sb, " foot=%dB", a.FootprintBytes)
	} else {
		sb.WriteString(" foot=unbounded")
	}
	return sb.String()
}
