// Static cost model: trip counts and cycle bounds (the quantitative layer
// on top of the divergence lattice in dataflow.go and the access-pattern
// analysis in memaccess.go).
//
// Two results per kernel, computed on demand against DefaultCostParams
// (CostModel) or any launch geometry (CostModelFor, mirroring
// MemAccessFor); Build runs the analysis once, inside the verifier:
//
//   - Affine trip-count analysis: for every natural loop, a [lo,hi] bound
//     on the per-thread, per-entry iteration count. Grid-stride loops
//     (induction a·tid+b stepping by a loop-invariant amount, compared
//     against a loop-invariant bound) get exact interval arithmetic over
//     the declared thread range; irreducible regions and loops whose
//     bound or step the interval-affine domain cannot pin get ⊤
//     (hi = CostInf) with a note saying why.
//
//   - Static cycle bounds: per-block execution-count intervals, per-pc
//     issue-count upper bounds, and a kernel-level [lo,hi] on the summed
//     per-WPU TickCycles plus per-bucket intervals for the eight-bucket
//     stall taxonomy (wpu.Stats.CycleBuckets order). The bounds are
//     claims checked by the trace-backed concordance test in
//     internal/workloads over all kernels × all schemes; the soundness
//     argument for each term is spelled out inline below and in
//     DESIGN.md.
//
// Soundness contract for the bounds: the launch runs cp.Threads threads
// under block distribution with the ABI of sim.Threads/WPU.Launch
// (r1 = tid ∈ [0, Threads−1], r2 = Threads, r3 = chunk-local index),
// registers declared via DeclareUniformRange hold launch values inside
// their declared interval (checked at Launch), and the machine is the cp
// geometry. Every interval claim is per thread: control divergence cannot
// break it because each thread executes its own instruction sequence
// regardless of how the warp is split, which is also why the trip
// analysis needs no divergence widening — a divergence-dependent bound
// simply evaluates to ⊤.
package program

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// CostParams is the machine geometry the cycle bounds are computed
// against. Zero fields are filled from DefaultCostParams (and Threads
// from the kernel's DeclareThreads) — the MemParams convention.
type CostParams struct {
	// WPUs, Warps, Width give the machine shape (Table 3: 4 × 4 × 16).
	WPUs  int
	Warps int
	Width int
	// Threads is the launch thread count the bounds hold for; 0 means the
	// kernel's declared maximum (DeclareThreads), else one warp's width.
	Threads int
	// HitLat is the L1 hit latency (cycles a group waits on a hit).
	HitLat int
	// MemTxWorst bounds the end-to-end cycles one line transaction can
	// occupy the memory system, misses, queueing and writebacks included.
	MemTxWorst int
	// Mem is the data-side geometry per-access transaction bounds are
	// recomputed against (memaccess.go).
	Mem MemParams
}

// The per-WPU instruction cache of Table 3, as far as the icache budget
// below needs it; the WPU's fetch path (which imports this package) uses the
// same three.
const (
	ICacheInstPerLine = 16  // 128 B line / 8 B encoded instruction
	ICacheLines       = 128 // 16 KB / 128 B
	IMissLat          = 42  // cold-fetch refill: crossbar round trip + L2 lookup
)

// DefaultCostParams is the Table 3 machine. MemTxWorst composes the
// worst path one transaction can take: L1 probe (3) + crossbar there and
// back with occupancy (2·(6+2)) + L2 lookup (30) + L2 probe (12) + memory
// bus both ways (2·8) + two DRAM accesses (2·100, the second covering a
// dirty-line writeback or queueing behind one) = 277.
var DefaultCostParams = CostParams{
	WPUs: 4, Warps: 4, Width: 16,
	HitLat: 3, MemTxWorst: 277,
	Mem: DefaultMemParams,
}

// normalizedFor fills zero fields with defaults; Threads falls back to
// the kernel's declared maximum, then to one warp.
func (cp CostParams) normalizedFor(p *Program) CostParams {
	d := DefaultCostParams
	if cp.WPUs <= 0 {
		cp.WPUs = d.WPUs
	}
	if cp.Warps <= 0 {
		cp.Warps = d.Warps
	}
	if cp.Width <= 0 {
		cp.Width = d.Width
	}
	if cp.HitLat <= 0 {
		cp.HitLat = d.HitLat
	}
	if cp.MemTxWorst <= 0 {
		cp.MemTxWorst = d.MemTxWorst
	}
	if cp.Threads <= 0 {
		if p != nil && p.maxThreads > 0 {
			cp.Threads = p.maxThreads
		} else {
			cp.Threads = cp.Width
		}
	}
	cp.Mem = cp.Mem.normalized()
	return cp
}

// CostInf is the saturation rail of the cost domain: any quantity at or
// beyond it means "unbounded" (⊤). Far below int64 overflow so sums of a
// few saturated terms cannot wrap.
const CostInf = int64(1) << 62

// CostInterval is a [Lo, Hi] claim about a dynamic count; Hi ≥ CostInf
// renders (and means) unbounded above.
type CostInterval struct{ Lo, Hi int64 }

// Unbounded reports whether the interval has no finite upper bound.
func (iv CostInterval) Unbounded() bool { return iv.Hi >= CostInf }

// Contains reports whether v satisfies the claim.
func (iv CostInterval) Contains(v int64) bool {
	return v >= iv.Lo && (iv.Unbounded() || v <= iv.Hi)
}

// String renders "[lo,hi]" with "inf" for an unbounded Hi.
func (iv CostInterval) String() string {
	if iv.Unbounded() {
		return fmt.Sprintf("[%d,inf]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// Saturating arithmetic on [−CostInf, CostInf]. The direction-aware add
// pair keeps saturated endpoints sound: an upper-bound sum with any
// saturated-high operand is CostInf, a lower-bound sum with any
// saturated-low operand is −CostInf.

func clampCost(v int64) int64 {
	if v > CostInf {
		return CostInf
	}
	if v < -CostInf {
		return -CostInf
	}
	return v
}

func addHi(a, b int64) int64 {
	if a >= CostInf || b >= CostInf {
		return CostInf
	}
	return clampCost(a + b)
}

func addLo(a, b int64) int64 {
	if a <= -CostInf || b <= -CostInf {
		return -CostInf
	}
	return clampCost(a + b)
}

func satNeg(a int64) int64 { return clampCost(-a) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	aa, ab := a, b
	if aa < 0 {
		aa = -aa
	}
	if ab < 0 {
		ab = -ab
	}
	if aa >= CostInf || ab >= CostInf || aa > CostInf/ab {
		if neg {
			return -CostInf
		}
		return CostInf
	}
	p := aa * ab
	if neg {
		p = -p
	}
	return p
}

// ceilDivPos returns ⌈n/d⌉ for d ≥ 1, clamped to [0, CostInf].
func ceilDivPos(n, d int64) int64 {
	if n <= 0 {
		return 0
	}
	if n >= CostInf {
		return CostInf
	}
	if d <= 0 {
		return CostInf // defensive; callers guarantee d ≥ 1
	}
	return (n + d - 1) / d
}

// ival is a saturating integer interval (endpoints in [−CostInf, CostInf]).
type ival struct{ lo, hi int64 }

var fullIval = ival{-CostInf, CostInf}

func (a ival) add(b ival) ival { return ival{addLo(a.lo, b.lo), addHi(a.hi, b.hi)} }
func (a ival) addK(k int64) ival {
	k = clampCost(k)
	return ival{addLo(a.lo, k), addHi(a.hi, k)}
}
func (a ival) neg() ival        { return ival{satNeg(a.hi), satNeg(a.lo)} }
func (a ival) hull(b ival) ival { return ival{min(a.lo, b.lo), max(a.hi, b.hi)} }
func (a ival) mulK(k int64) ival {
	x, y := satMul(a.lo, k), satMul(a.hi, k)
	if x > y {
		x, y = y, x
	}
	return ival{x, y}
}
func (a ival) mul(b ival) ival {
	lo, hi := satMul(a.lo, b.lo), satMul(a.lo, b.lo)
	for _, v := range [...]int64{satMul(a.lo, b.hi), satMul(a.hi, b.lo), satMul(a.hi, b.hi)} {
		lo, hi = min(lo, v), max(hi, v)
	}
	return ival{lo, hi}
}

// cval is the interval-affine abstract value: when top is false it claims
// v(t) − ct·t ∈ c0 for every thread id t ∈ [0, Threads−1]. Note this is a
// per-thread claim only — unlike dataflow.go's absVal it says nothing
// about warp uniformity, which is what makes range-producing transfer
// rules (ANDI, MIN/MAX, comparisons) sound here.
type cval struct {
	top bool
	ct  int64
	c0  ival
}

var topVal = cval{top: true}

func cconst(k int64) cval {
	k = clampCost(k)
	return cval{c0: ival{k, k}}
}

// rng projects the claim onto a plain interval over t ∈ [0, tmax].
func (v cval) rng(tmax int64) ival {
	if v.top {
		return fullIval
	}
	if v.ct == 0 {
		return v.c0
	}
	span := satMul(v.ct, tmax)
	if span >= 0 {
		return ival{v.c0.lo, addHi(v.c0.hi, span)}
	}
	return ival{addLo(v.c0.lo, span), v.c0.hi}
}

func (v cval) asConst() (int64, bool) {
	if !v.top && v.ct == 0 && v.c0.lo == v.c0.hi {
		return v.c0.lo, true
	}
	return 0, false
}

// cjoin is the lattice join; mismatched tid coefficients demote both
// sides to their plain ranges (ct = 0) and hull.
func cjoin(a, b cval, tmax int64) cval {
	if a.top || b.top {
		return topVal
	}
	if a.ct == b.ct {
		return cval{ct: a.ct, c0: a.c0.hull(b.c0)}
	}
	return cval{c0: a.rng(tmax).hull(b.rng(tmax))}
}

// cwiden jumps a still-growing interval endpoint to its rail so loop
// fixpoints terminate. ct changes (which are monotone toward 0 under
// cjoin) pass through un-widened; growth after that widens.
func cwiden(old, nw cval) cval {
	if old.top || nw.top {
		return topVal
	}
	if old.ct != nw.ct {
		return nw
	}
	w := nw
	if nw.c0.lo < old.c0.lo {
		w.c0.lo = -CostInf
	}
	if nw.c0.hi > old.c0.hi {
		w.c0.hi = CostInf
	}
	return w
}

// cstate is the abstract register file at one program point.
type cstate [isa.NumRegs]cval

func cadd(a, b cval, sign int64) cval {
	if a.top || b.top {
		return topVal
	}
	ct := a.ct + sign*b.ct // |ct| ≤ affLimit each; no overflow
	if ct > affLimit || ct < -affLimit {
		return topVal
	}
	c0 := b.c0
	if sign < 0 {
		c0 = c0.neg()
	}
	return cval{ct: ct, c0: a.c0.add(c0)}
}

func cscale(a cval, k int64) cval {
	if a.top {
		return topVal
	}
	ct, ok := mulRange(a.ct, k)
	if !ok {
		return topVal
	}
	return cval{ct: ct, c0: a.c0.mulK(k)}
}

// costStep is the interval-affine transfer function. Anything without a
// listed rule (loads, divides, logic on unknown values, float data ops)
// conservatively produces ⊤.
func costStep(in isa.Inst, s *cstate, tmax int64) {
	if !in.Op.WritesDst() || in.Dst == 0 {
		return
	}
	a, b := s[in.SrcA], s[in.SrcB]
	out := topVal
	switch in.Op {
	case isa.MOVI:
		out = cconst(in.Imm)
	case isa.MOV:
		out = a
	case isa.ADD:
		out = cadd(a, b, 1)
	case isa.SUB:
		out = cadd(a, b, -1)
	case isa.ADDI:
		if !a.top {
			out = cval{ct: a.ct, c0: a.c0.addK(in.Imm)}
		}
	case isa.MULI:
		out = cscale(a, in.Imm)
	case isa.SHLI:
		if k := uint(in.Imm & 63); k <= 40 {
			out = cscale(a, int64(1)<<k)
		}
	case isa.MUL:
		if ka, ok := a.asConst(); ok {
			out = cscale(b, ka)
		} else if kb, ok := b.asConst(); ok {
			out = cscale(a, kb)
		} else if !a.top && !b.top {
			out = cval{c0: a.rng(tmax).mul(b.rng(tmax))}
		}
	case isa.DIV:
		// Go-style truncated division (÷0 traps quietly to 0). With a
		// non-negative dividend and a strictly positive divisor the
		// quotient is monotone in both operands.
		if !a.top && !b.top {
			ra, rb := a.rng(tmax), b.rng(tmax)
			if ra.lo >= 0 && rb.lo >= 1 {
				out = cval{c0: ival{ra.lo / rb.hi, ra.hi / rb.lo}}
			}
		}
	case isa.REM:
		// With a ≥ 0 and b ≥ 1 the remainder is in [0, b-1] and never
		// exceeds the dividend.
		if !a.top && !b.top {
			ra, rb := a.rng(tmax), b.rng(tmax)
			if ra.lo >= 0 && rb.lo >= 1 {
				out = cval{c0: ival{0, min(ra.hi, rb.hi-1)}}
			}
		}
	case isa.ANDI:
		// Two's complement: x & m with m ≥ 0 has only bits of m set, so
		// the result lies in [0, m] for any x.
		if in.Imm >= 0 {
			out = cval{c0: ival{0, clampCost(in.Imm)}}
		}
	case isa.SLT, isa.SLE, isa.SEQ, isa.SNE, isa.SLTI, isa.FSLT, isa.FSLE:
		out = cval{c0: ival{0, 1}}
	case isa.MIN:
		if !a.top && !b.top {
			ra, rb := a.rng(tmax), b.rng(tmax)
			out = cval{c0: ival{min(ra.lo, rb.lo), min(ra.hi, rb.hi)}}
		}
	case isa.MAX:
		if !a.top && !b.top {
			ra, rb := a.rng(tmax), b.rng(tmax)
			out = cval{c0: ival{max(ra.lo, rb.lo), max(ra.hi, rb.hi)}}
		}
	}
	s[in.Dst] = out
}

// UniformRange declares a launch-uniform input register together with the
// interval its launch value is promised to lie in — the piece of launcher
// knowledge the trip-count analysis needs to bound data-dependent loops.
// DeclareUniformRange implies DeclareUniformInputs; the WPU checks the
// promise against the actual register file at Launch.
type UniformRange struct {
	Reg    isa.Reg
	Lo, Hi int64
}

// DeclareUniformRange declares reg as a warp-uniform scalar input whose
// launch value lies in [lo, hi] (inclusive). Build rejects r0, a register
// past the file, and lo > hi.
func (b *Builder) DeclareUniformRange(reg isa.Reg, lo, hi int64) {
	b.DeclareUniformInputs(reg)
	b.uranges = append(b.uranges, UniformRange{Reg: reg, Lo: lo, Hi: hi})
}

// UniformRanges returns the declared input ranges (for Launch-time
// validation and tooling). The slice is the program's own, shared like
// Decoded's: every WPU reads it at every Launch, and it must not be
// mutated.
func (p *Program) UniformRanges() []UniformRange {
	return p.uranges[:len(p.uranges):len(p.uranges)]
}

// costEntry is the abstract register file at kernel entry under the
// launch ABI (block distribution: r3 is the chunk-local index).
func (p *Program) costEntry(cp CostParams) cstate {
	var s cstate
	for r := range s {
		s[r] = topVal
	}
	T := int64(cp.Threads)
	s[0] = cconst(0)
	s[1] = cval{ct: 1}
	s[2] = cconst(T)
	per := (T + int64(cp.WPUs) - 1) / int64(cp.WPUs)
	s[3] = cval{c0: ival{0, max(per-1, 0)}}
	for _, u := range p.uranges { // Build rejected r0 and registers past the file
		s[u.Reg] = cval{c0: ival{clampCost(u.Lo), clampCost(u.Hi)}}
	}
	return s
}

// costFixpoint runs the forward fixpoint of the interval-affine domain,
// widening once a block's state has been joined into twice (the first
// arrival is a copy, not a join). Widening makes the chain finite — per
// register the tid coefficient can drop to 0 once, each endpoint can jump
// to its rail once, and the value can go to ⊤ once — so the solver
// terminates without a sweep cap.
func (p *Program) costFixpoint(g *cfgView, cp CostParams) []cstate {
	tmax := max(int64(cp.Threads)-1, 0)
	return solve(g, false, p.costEntry(cp),
		func(b int, s cstate) cstate { return p.costBlockOut(s, g.blocks[b], tmax) },
		func(_ int, old, nw cstate, visits int) cstate {
			if visits == 0 {
				return nw
			}
			for r := range nw {
				j := cjoin(old[r], nw[r], tmax)
				if visits > 2 {
					j = cwiden(old[r], j)
				}
				nw[r] = j
			}
			return nw
		})
}

// costBlockOut runs the transfer function over one block.
func (p *Program) costBlockOut(in cstate, b Block, tmax int64) cstate {
	s := in
	for pc := b.Start; pc < b.End; pc++ {
		costStep(p.Code[pc], &s, tmax)
	}
	return s
}

// LoopCost is one natural loop's trip-count verdict.
type LoopCost struct {
	// Header is the loop-header block ID; HeaderPC its first instruction.
	Header   int
	HeaderPC int
	// Induction is the recognised induction register (0 when the loop was
	// not recognised and the bound is the trivial [0, inf]).
	Induction isa.Reg
	// Trips bounds the per-thread body executions per loop entry.
	Trips CostInterval
	// Note says why a loop fell back to ⊤ (empty when recognised).
	Note string
}

// loopRel is the continue-relation of the recognised loop test.
type loopRel uint8

const (
	relLT loopRel = iota // continue while ind <  bound
	relLE                // continue while ind <= bound
	relGT                // continue while ind >  bound
	relGE                // continue while ind >= bound
)

func negateRel(r loopRel) loopRel {
	switch r {
	case relLT:
		return relGE
	case relLE:
		return relGT
	case relGT:
		return relLE
	default:
		return relLT
	}
}

// loopTrips recognises the grid-stride shape — header ends in a
// conditional branch over a compare of an induction register against a
// loop-invariant bound, every back-edge source advances the induction by
// a loop-invariant positively- (or negatively-) signed step — and turns
// it into interval trip bounds. Anything else returns [0, inf] with a
// note. The second result reports whether the Lo bound is also valid as
// a per-entry guarantee (single unconditional induction step and all
// exits at the header).
func (p *Program) loopTrips(g *cfgView, lp *natLoop, in []cstate, tmax int64, cp CostParams) (LoopCost, bool) {
	h := p.Blocks[lp.header]
	lc := LoopCost{Header: lp.header, HeaderPC: h.Start, Trips: CostInterval{0, CostInf}}
	fail := func(note string) (LoopCost, bool) {
		lc.Note = note
		return lc, false
	}

	term := p.Code[h.End-1]
	if !term.Op.IsBranch() {
		return fail("header does not end in a conditional branch")
	}
	takenBlk := g.blockOf[term.Target]
	if p.Blocks[takenBlk].Start != term.Target {
		return fail("branch target is not a block leader")
	}
	if h.End >= len(p.Code) {
		return fail("header has no fallthrough block")
	}
	fallBlk := g.blockOf[h.End]
	var cont int
	switch {
	case lp.inLoop[fallBlk] && !lp.inLoop[takenBlk]:
		cont = fallBlk
	case lp.inLoop[takenBlk] && !lp.inLoop[fallBlk]:
		cont = takenBlk
	default:
		return fail("header branch does not exit the loop")
	}
	contWhileTrue := cont == fallBlk
	if term.Op == isa.BNEZ {
		contWhileTrue = cont == takenBlk
	}

	// The predicate must be a compare computed in the header, with its
	// operands untouched between block entry, the compare, and the branch.
	pred := term.SrcA
	cmpPC := -1
	for pc := h.End - 2; pc >= h.Start; pc-- {
		if d, isDef := instDef(p.Code[pc]); isDef && d == pred {
			cmpPC = pc
			break
		}
	}
	if cmpPC < 0 {
		return fail("loop predicate is not defined in the header")
	}
	cmp := p.Code[cmpPC]
	if cmp.Op != isa.SLT && cmp.Op != isa.SLE && cmp.Op != isa.SLTI {
		return fail("loop predicate is not a signed compare")
	}
	touched := func(lo, hi int, regs ...isa.Reg) bool {
		for pc := lo; pc <= hi; pc++ {
			if d, isDef := instDef(p.Code[pc]); isDef {
				for _, r := range regs {
					if d == r && r != 0 {
						return true
					}
				}
			}
		}
		return false
	}
	if touched(cmpPC+1, h.End-2, pred, cmp.SrcA, cmp.SrcB) ||
		touched(h.Start, cmpPC-1, cmp.SrcA, cmp.SrcB) {
		return fail("compare operands are redefined inside the header")
	}

	defsInLoop := func(x isa.Reg) []int {
		var pcs []int
		if x == 0 {
			return pcs
		}
		for bid, inL := range lp.inLoop {
			if !inL {
				continue
			}
			for pc := p.Blocks[bid].Start; pc < p.Blocks[bid].End; pc++ {
				if d, isDef := instDef(p.Code[pc]); isDef && d == x {
					pcs = append(pcs, pc)
				}
			}
		}
		return pcs
	}
	headerIn := in[lp.header]
	blockOf := g.blockOf

	// indStep checks whether x is an induction register: every in-loop
	// def advances it by a loop-invariant step, all steps share a sign,
	// and every back-edge source block contains one (so each iteration
	// provably makes at least the minimum-step progress — the fact the
	// Hi formula rests on).
	indStep := func(x isa.Reg) (ival, []int, bool) {
		defs := defsInLoop(x)
		if len(defs) == 0 {
			return ival{}, nil, false
		}
		var st ival
		first := true
		for _, pc := range defs {
			def := p.Code[pc]
			var s ival
			switch def.Op {
			case isa.ADDI:
				if def.SrcA != x {
					return ival{}, nil, false
				}
				s = ival{clampCost(def.Imm), clampCost(def.Imm)}
			case isa.ADD:
				var other isa.Reg
				switch {
				case def.SrcA == x && def.SrcB != x:
					other = def.SrcB
				case def.SrcB == x && def.SrcA != x:
					other = def.SrcA
				default:
					return ival{}, nil, false
				}
				if len(defsInLoop(other)) > 0 {
					return ival{}, nil, false
				}
				s = headerIn[other].rng(tmax)
			case isa.SUB:
				if def.SrcA != x || def.SrcB == x {
					return ival{}, nil, false
				}
				if len(defsInLoop(def.SrcB)) > 0 {
					return ival{}, nil, false
				}
				s = headerIn[def.SrcB].rng(tmax).neg()
			default:
				return ival{}, nil, false
			}
			if first {
				st, first = s, false
			} else {
				st = st.hull(s)
			}
		}
		if !(st.lo >= 1 || st.hi <= -1) {
			return ival{}, nil, false
		}
		for _, src := range lp.backSrcs {
			has := false
			for _, pc := range defs {
				if blockOf[pc] == src {
					has = true
					break
				}
			}
			if !has {
				return ival{}, nil, false
			}
		}
		return st, defs, true
	}

	var (
		indReg  isa.Reg
		step    ival
		indDefs []int
		boundIv ival
		rel     loopRel
	)
	if cmp.Op == isa.SLTI {
		s, defs, ok := indStep(cmp.SrcA)
		if !ok {
			return fail("no recognisable induction register")
		}
		indReg, step, indDefs = cmp.SrcA, s, defs
		boundIv = ival{clampCost(cmp.Imm), clampCost(cmp.Imm)}
		rel = relLT
	} else {
		sa, da, oka := indStep(cmp.SrcA)
		sb, db, okb := indStep(cmp.SrcB)
		switch {
		case oka && !okb:
			indReg, step, indDefs = cmp.SrcA, sa, da
			if len(defsInLoop(cmp.SrcB)) > 0 {
				return fail("loop bound is modified inside the loop")
			}
			boundIv = headerIn[cmp.SrcB].rng(tmax)
			rel = relLT
			if cmp.Op == isa.SLE {
				rel = relLE
			}
		case okb && !oka:
			indReg, step, indDefs = cmp.SrcB, sb, db
			if len(defsInLoop(cmp.SrcA)) > 0 {
				return fail("loop bound is modified inside the loop")
			}
			boundIv = headerIn[cmp.SrcA].rng(tmax)
			rel = relGT
			if cmp.Op == isa.SLE {
				rel = relGE
			}
		default:
			return fail("no recognisable induction register")
		}
	}
	if !contWhileTrue {
		rel = negateRel(rel)
	}
	// Normalise ≤/≥ to strict relations by shifting the bound.
	switch rel {
	case relLE:
		boundIv, rel = boundIv.addK(1), relLT
	case relGE:
		boundIv, rel = boundIv.addK(-1), relGT
	}

	// Induction value at loop entry: join of the out-states of the
	// header's outside-loop predecessors (plus the ABI entry state when
	// the header is the entry block).
	initIv := ival{CostInf, -CostInf}
	haveInit := false
	if lp.header == 0 {
		e := p.costEntry(cp)
		initIv, haveInit = e[indReg].rng(tmax), true
	}
	for bid := range p.Blocks {
		if lp.inLoop[bid] {
			continue
		}
		isPred := false
		for _, s := range p.Blocks[bid].Succ {
			if s == lp.header {
				isPred = true
			}
		}
		if !isPred {
			continue
		}
		out := p.costBlockOut(in[bid], p.Blocks[bid], tmax)
		r := out[indReg].rng(tmax)
		if haveInit {
			initIv = initIv.hull(r)
		} else {
			initIv, haveInit = r, true
		}
	}
	if !haveInit {
		return fail("loop header has no entry edge")
	}

	var trips CostInterval
	switch {
	case rel == relLT && step.lo >= 1:
		trips.Hi = ceilDivPos(addHi(boundIv.hi, satNeg(initIv.lo)), step.lo)
		trips.Lo = ceilDivPos(addLo(boundIv.lo, satNeg(initIv.hi)), step.hi)
	case rel == relGT && step.hi <= -1:
		trips.Hi = ceilDivPos(addHi(initIv.hi, satNeg(boundIv.lo)), satNeg(step.hi))
		trips.Lo = ceilDivPos(addLo(initIv.lo, satNeg(boundIv.hi)), satNeg(step.lo))
	default:
		return fail("step direction disagrees with the loop condition")
	}

	// The Lo bound additionally needs every iteration to take exactly one
	// step (a single induction def outside any inner loop) and every loop
	// exit to pass through the header test.
	loValid := len(indDefs) == 1
	if loValid {
		defBlk := blockOf[indDefs[0]]
		for _, src := range lp.backSrcs {
			if !g.dom[src].has(defBlk) {
				loValid = false
			}
		}
		for _, other := range g.loops {
			if other.header == lp.header || !lp.inLoop[other.header] {
				continue
			}
			if other.inLoop[defBlk] {
				loValid = false
			}
		}
		for bid, inL := range lp.inLoop {
			if !inL || bid == lp.header {
				continue
			}
			// A program-exit block inside the body (no successors) can cut
			// an entry short of its trip bound just like a side exit.
			if len(p.Blocks[bid].Succ) == 0 {
				loValid = false
			}
			for _, s := range p.Blocks[bid].Succ {
				if !lp.inLoop[s] {
					loValid = false
				}
			}
		}
	}
	if !loValid {
		trips.Lo = 0
	}
	lc.Induction = indReg
	lc.Trips = trips
	return lc, loValid
}

// BlockCost is one basic block's per-thread execution-count bounds.
type BlockCost struct {
	ID    int
	Execs CostInterval
}

// CycleBucketLabels names the eight buckets of the stall taxonomy in
// canonical order, for CostModel.Buckets and for wpu.Stats.CycleBuckets:
// wpu.CycleBucketLabels is this array (wpu imports this package).
var CycleBucketLabels = [8]string{
	"busy",
	"mem_coherent",
	"mem_divergent",
	"barrier",
	"icache",
	"wst_full",
	"slot_wait",
	"idle",
}

// CostModel is the full static verdict for one (kernel, geometry) pair.
type CostModel struct {
	Params CostParams
	// Loops has one entry per natural loop, by header block ID.
	Loops []LoopCost
	// Blocks has one entry per basic block: per-thread execution bounds.
	Blocks []BlockCost
	// Issues bounds, per pc, the SIMD issues of that instruction summed
	// over the whole launch (all WPUs, all warps, all splits).
	Issues []CostInterval
	// Ticks bounds the summed per-WPU TickCycles of the launch.
	Ticks CostInterval
	// Buckets bounds each taxonomy bucket (CycleBucketLabels order) for
	// the most permissive scheme; BucketBoundsFor tightens per configuration.
	Buckets [8]CostInterval
}

// BucketBoundsFor tightens the bucket bounds for one configuration: one
// that can never create warp splits (no subdivision on branches or memory
// divergence, no slip) can never stall on a full WST or on scheduler slots.
func (m *CostModel) BucketBoundsFor(canSplit bool) [8]CostInterval {
	b := m.Buckets
	if !canSplit {
		b[5] = CostInterval{}
		b[6] = CostInterval{}
	}
	return b
}

// costGeometry is the block-distribution launch shape.
type costGeom struct {
	activeWPUs int
	perWPU     []int64 // threads per active WPU
	totalWarps int64
}

func costGeometry(cp CostParams) costGeom {
	var g costGeom
	T := int64(cp.Threads)
	per := (T + int64(cp.WPUs) - 1) / int64(cp.WPUs)
	rem := T
	for w := 0; w < cp.WPUs && rem > 0; w++ {
		c := min(per, rem)
		rem -= c
		g.perWPU = append(g.perWPU, c)
		g.totalWarps += (c + int64(cp.Width) - 1) / int64(cp.Width)
		g.activeWPUs++
	}
	return g
}

// CostModel computes the model under DefaultCostParams and the declared
// thread count.
func (p *Program) CostModel() *CostModel { return p.CostModelFor(CostParams{}) }

// CostModelFor computes the model for an arbitrary launch geometry — the
// MemAccessFor analogue, used by the concordance harness with the per-step
// thread count.
func (p *Program) CostModelFor(cp CostParams) *CostModel { return p.costModel(p.cfg, cp) }

// costModel is the analysis behind CostModelFor over a given CFG view:
// Build's own for the reports and launch-time computation, a fresh one when
// the verifier checks the model's invariants.
func (p *Program) costModel(g *cfgView, cp CostParams) *CostModel {
	cp = cp.normalizedFor(p)
	m := &CostModel{Params: cp}
	reach, dom, pdom, loops, irreducible := g.reach, g.dom, g.pdom, g.loops, g.irreducible
	in := p.costFixpoint(g, cp)
	tmax := max(int64(cp.Threads)-1, 0)

	// Trip counts per loop.
	loValid := make([]bool, len(loops))
	for i := range loops {
		lc, lv := p.loopTrips(g, &loops[i], in, tmax, cp)
		if irreducible[loops[i].header] {
			lc.Trips = CostInterval{0, CostInf}
			lc.Note = "irreducible region"
			lv = false
		}
		m.Loops = append(m.Loops, lc)
		loValid[i] = lv
	}

	// Per-block execution upper bounds: product over enclosing loops of
	// tripsHi — plus one extra header execution per entry for the final
	// failing test.
	execs := make([]CostInterval, len(p.Blocks))
	for bid := range p.Blocks {
		if !reach[bid] {
			continue
		}
		hi := int64(1)
		for i, lp := range loops {
			if !lp.inLoop[bid] {
				continue
			}
			mult := m.Loops[i].Trips.Hi
			if bid == lp.header {
				mult = addHi(mult, 1)
			}
			hi = satMul(hi, mult)
		}
		if irreducible[bid] {
			hi = CostInf
		}
		execs[bid] = CostInterval{0, hi}
	}

	// Per-block execution lower bounds, valid for terminated runs (the
	// only ones whose cycle totals we ever compare against). A monotone
	// fixpoint over two guaranteed-execution rules:
	//
	//  (A) if x post-dominates b and both sit in exactly the same set of
	//      loops, every execution of b is followed by one of x before the
	//      innermost common header can be re-reached, so lo(x) ≥ lo(b);
	//  (B) a recognised loop is entered at least lo(p) times for each
	//      outside predecessor p of its header whose only successor is
	//      the header; per entry the header runs tripsLo+1 times and any
	//      in-loop block dominating every back edge runs tripsLo times.
	sameLoops := func(a, b int) bool {
		for _, lp := range loops {
			if lp.inLoop[a] != lp.inLoop[b] {
				return false
			}
		}
		return true
	}
	for iter := 0; iter < 4*len(p.Blocks)+8; iter++ {
		changed := false
		raise := func(bid int, v int64) {
			if v > execs[bid].Lo {
				execs[bid].Lo = v
				changed = true
			}
		}
		if reach[0] && execs[0].Lo < 1 && !func() bool {
			for _, lp := range loops {
				if lp.inLoop[0] {
					return true
				}
			}
			return false
		}() {
			raise(0, 1)
		}
		for bid := range p.Blocks {
			if !reach[bid] || execs[bid].Lo == 0 {
				continue
			}
			for x := range p.Blocks {
				if x != bid && reach[x] && pdom[bid].has(x) && sameLoops(x, bid) {
					raise(x, execs[bid].Lo)
				}
			}
		}
		for i, lp := range loops {
			h := lp.header
			if irreducible[h] {
				continue
			}
			entry := int64(0)
			if h == 0 {
				entry = 1
			}
			for bid, b := range p.Blocks {
				if !reach[bid] || lp.inLoop[bid] || len(b.Succ) != 1 || b.Succ[0] != h {
					continue
				}
				entry = addHi(entry, execs[bid].Lo)
			}
			if entry == 0 {
				continue
			}
			tripsLo := m.Loops[i].Trips.Lo
			raise(h, clampCost(satMul(entry, tripsLo+1)))
			if !loValid[i] || tripsLo == 0 {
				continue
			}
			for bid := range p.Blocks {
				if !lp.inLoop[bid] || bid == h {
					continue
				}
				domsAll := true
				for _, src := range lp.backSrcs {
					if !dom[src].has(bid) {
						domsAll = false
					}
				}
				if domsAll {
					raise(bid, clampCost(satMul(entry, tripsLo)))
				}
			}
		}
		if !changed {
			break
		}
	}
	for bid := range p.Blocks {
		if execs[bid].Lo > execs[bid].Hi {
			execs[bid].Lo = execs[bid].Hi
		}
	}
	for bid := range p.Blocks {
		m.Blocks = append(m.Blocks, BlockCost{ID: bid, Execs: execs[bid]})
	}

	// Divergence reachability per pc: warp splits only originate at
	// statically non-uniform branches and at memory sites whose
	// transaction bound exceeds one (a single-line access cannot
	// hit/miss-diverge, and Slip only triggers on divergent misses), and
	// splits only run code reachable from such a source.
	memTx := make(map[int]int)
	anyDivMem := false
	for _, a := range p.MemAccessFor(cp.Mem) {
		memTx[a.PC] = a.Transactions
		if a.Transactions > 1 {
			anyDivMem = true
		}
	}
	divSrc := make([]bool, len(p.Code))
	anyDivBranch := false
	for pc, inst := range p.Code {
		switch {
		case inst.Op.IsBranch():
			if bi, ok := p.branches[pc]; ok && bi.Class != ClassUniform {
				divSrc[pc] = true
				anyDivBranch = true
			}
		case inst.Op.IsMem():
			if memTx[pc] > 1 {
				divSrc[pc] = true
			}
		}
	}
	blockOf := g.blockOf
	var divSeeds []int
	for pc, src := range divSrc {
		if src && reach[blockOf[pc]] {
			divSeeds = append(divSeeds, p.Blocks[blockOf[pc]].Succ...)
		}
	}
	entryDiv := g.flood(divSeeds, false, -1)
	diverged := make([]bool, len(p.Code))
	for bid, b := range p.Blocks {
		if !reach[bid] {
			continue
		}
		f := entryDiv[bid]
		for pc := b.Start; pc < b.End; pc++ {
			diverged[pc] = f
			if divSrc[pc] {
				f = true
			}
		}
	}

	// Per-pc issue bounds. Where no split can exist every issue is a full
	// warp (≤ totalWarps · execsHi); where splits can exist each issue
	// still carries ≥ 1 active thread, and each thread executes the pc at
	// most execsHi times (≤ Threads · execsHi).
	geo := costGeometry(cp)
	m.Issues = make([]CostInterval, len(p.Code))
	totalIssuesHi := int64(0)
	for pc := range p.Code {
		if !reach[blockOf[pc]] {
			continue
		}
		mult := geo.totalWarps
		if diverged[pc] {
			mult = int64(cp.Threads)
		}
		m.Issues[pc] = CostInterval{0, satMul(execs[blockOf[pc]].Hi, mult)}
		totalIssuesHi = addHi(totalIssuesHi, m.Issues[pc].Hi)
	}

	// Upper bounds on the launch's summed TickCycles. Every cycle of a
	// run that completes (the simulator's deadlock detector guarantees
	// this) either issues somewhere (≤ totalIssuesHi such cycles), has a
	// memory or icache transaction in flight (the union of their
	// lifetimes spans ≤ memTermHi + icacheBudget cycles), releases a
	// barrier (≤ barrierTermHi), or makes split-merge progress without an
	// issue — and merges consume splits, of which at most one is created
	// per issued divergent instruction, giving a second totalIssuesHi.
	// TickCycles sums per-WPU live cycles, each ≤ the launch's elapsed
	// cycles, so the total is ≤ activeWPUs · elapsed.
	memTermHi := int64(0)
	barrierTermHi := int64(0)
	for pc, inst := range p.Code {
		switch {
		case inst.Op.IsMem():
			memTermHi = addHi(memTermHi, satMul(m.Issues[pc].Hi, satMul(int64(memTx[pc]), int64(cp.MemTxWorst))))
		case inst.Op == isa.BARRIER:
			barrierTermHi = addHi(barrierTermHi, m.Issues[pc].Hi)
		}
	}
	progLines := int64(len(p.Code)+ICacheInstPerLine-1) / ICacheInstPerLine
	icacheBudget := CostInf
	if progLines <= ICacheLines {
		// A kernel's lines are consecutive, so a program fitting the
		// total capacity cannot conflict-evict: each line misses at most
		// once per WPU.
		icacheBudget = satMul(int64(geo.activeWPUs), satMul(progLines, IMissLat))
	}
	elapsedHi := addHi(addHi(addHi(addHi(satMul(2, totalIssuesHi), memTermHi), icacheBudget), barrierTermHi), 4)
	tickHi := satMul(int64(geo.activeWPUs), elapsedHi)

	// Lower bounds: every thread executes at least lowerOps instructions
	// (mandatory blocks times their guaranteed trips), a thread retires
	// at most one instruction per cycle, and a WPU issues at most Width
	// thread-ops per cycle.
	lowerOps := int64(0)
	for bid, b := range p.Blocks {
		if reach[bid] {
			lowerOps = addHi(lowerOps, satMul(execs[bid].Lo, int64(b.Len())))
		}
	}
	tickLo, busyLo := int64(0), int64(0)
	for _, tw := range geo.perWPU {
		issueFloor := ceilDivPos(satMul(tw, lowerOps), int64(cp.Width))
		busyLo = addHi(busyLo, issueFloor)
		tickLo = addHi(tickLo, max(lowerOps, issueFloor))
	}
	if tickLo >= CostInf {
		tickLo = 0 // a lower bound must stay finite to be a claim
	}
	if busyLo >= CostInf {
		busyLo = 0
	}
	m.Ticks = CostInterval{tickLo, tickHi}

	capHi := func(v int64) int64 { return min(v, tickHi) }
	hasBarrier := barrierTermHi > 0
	anyHazard := anyDivMem || anyDivBranch
	m.Buckets = [8]CostInterval{
		{busyLo, capHi(totalIssuesHi)},
		{0, capHi(memTermHi)},
		{0, 0},
		{0, 0},
		{0, capHi(icacheBudget)},
		{0, 0},
		{0, 0},
		{0, tickHi},
	}
	if anyDivMem {
		m.Buckets[2] = CostInterval{0, capHi(memTermHi)}
	}
	if hasBarrier {
		m.Buckets[3] = CostInterval{0, tickHi}
	}
	if anyHazard {
		m.Buckets[5] = CostInterval{0, tickHi}
		m.Buckets[6] = CostInterval{0, tickHi}
	}
	return m
}

// Report renders the model in a stable, golden-file-friendly format.
func (m *CostModel) Report(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s: threads=%d geometry=%dx%dx%d warps=%d loops=%d\n",
		name, m.Params.Threads, m.Params.WPUs, m.Params.Warps, m.Params.Width,
		costGeometry(m.Params).totalWarps, len(m.Loops))
	for _, l := range m.Loops {
		fmt.Fprintf(&sb, "  loop  B%-3d @pc %-3d ind=r%-2d trips=%s", l.Header, l.HeaderPC, l.Induction, l.Trips)
		if l.Note != "" {
			fmt.Fprintf(&sb, " (%s)", l.Note)
		}
		sb.WriteByte('\n')
	}
	for _, b := range m.Blocks {
		fmt.Fprintf(&sb, "  block B%-3d execs=%s\n", b.ID, b.Execs)
	}
	fmt.Fprintf(&sb, "  ticks=%s\n", m.Ticks)
	sb.WriteString("  buckets")
	for i, b := range m.Buckets {
		fmt.Fprintf(&sb, " %s=%s", CycleBucketLabels[i], b)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// CostModelReport renders CostModel's model.
func (p *Program) CostModelReport() string { return p.CostModel().Report(p.Name) }
