// Static divergence dataflow analysis.
//
// Classifies every register value at every program point on the lattice
//
//	uniform  ⊑  tid-affine (a·tid + b)  ⊑  divergent
//
// in the style of Coutinho et al. ("Divergence Analysis and Optimizations",
// PACT 2011) with the affine-constraint refinement of Sampaio et al. (see
// PAPERS.md), adapted to the DWS execution model. The results drive three
// consumers: the §4.3 subdivide-branch selection (a branch whose predicate
// is provably warp-uniform can never split a warp, so Subdividable demands
// *divergence-capable ∧ short-join* rather than short-join alone, and the
// WPU front end steers statically-uniform branches with a single-lane fast
// path), the verifier's memory-bounds check (the exact-affine component
// below subsumes its previous ad-hoc pattern-matching), and per-access
// classification of which loads/stores can produce intra-warp memory
// divergence (a warp-uniform address touches one line: every lane hits or
// misses together).
//
// Soundness is defined against the launch ABI (sim.Threads / WPU.Launch):
// r0 is hardwired zero, r1 is the global thread id, r2 is the warp-uniform
// thread count, region base registers (DeclareRegion) hold warp-uniform
// buffer bases, and inputs declared via DeclareUniformInputs hold the same
// scalar parameter in every thread. r3 (local index) and every other
// declared input may differ per thread, so they enter as divergent. "Uniform" is a claim about the lanes
// that co-execute in one warp split — under DWS that is a strictly harder
// claim than under lockstep SIMT, because warp splits outlive re-convergence
// points (BranchBypass, §5.3), arise from memory divergence as well as
// branches, and PC-based re-convergence (§4.5) happily merges sibling splits
// whose loop trip counts have drifted apart. The three divergence-injection
// rules below (sync points, trip-desynchronised loops) account for that; the
// trace-backed concordance test in internal/workloads replays every
// benchmark kernel and asserts no branch classified uniform here ever
// dynamically diverges.
package program

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Class is the divergence classification of a value, branch predicate, or
// memory-access address.
type Class uint8

const (
	// ClassUniform marks a value provably equal across all co-executing
	// lanes of any warp split, for every launch honouring the ABI.
	ClassUniform Class = iota
	// ClassAffine marks a value provably equal to a·tid + b with a ≠ 0 and
	// warp-uniform a, b: lanes disagree, but in a statically known pattern
	// (the shape the bounds checker and coalescing reasoning care about).
	ClassAffine
	// ClassDivergent is the lattice top: no static claim.
	ClassDivergent
)

// String returns "uniform", "affine", or "divergent".
func (c Class) String() string {
	switch c {
	case ClassUniform:
		return "uniform"
	case ClassAffine:
		return "affine"
	default:
		return "divergent"
	}
}

// The abstract value domain. Three kinds, ordered vExact ⊑ vStride ⊑ vDiv:
//
//   - vExact: value = (region base) + c0 + ct·tid, with exact non-wrapping
//     coefficients (|c0|, |ct| ≤ affLimit). This is the component the
//     memory-bounds check consumes, and it is path-independent — a pure
//     function of tid — so sync-point and loop forcing never demote it.
//   - vStride: value = (some warp-uniform base) + s·tid, tracked modulo
//     2^64. Go's wrapping int64 arithmetic is exactly the machine's, so
//     stride claims survive overflow where exact ones cannot.
//   - vDiv: the top.
type vKind uint8

const (
	vExact vKind = iota
	vStride
	vDiv
)

// absVal is one abstract value. Unused fields are kept zero so that struct
// equality is lattice-element equality.
type absVal struct {
	kind   vKind
	region int   // vExact: index into p.regions, or -1
	c0, ct int64 // vExact: constant and tid coefficients
	s      int64 // vStride: tid stride mod 2^64
}

var divVal = absVal{kind: vDiv}

// uniformVal is an unknown-but-warp-uniform value (stride 0).
var uniformVal = absVal{kind: vStride}

func exactConst(c int64) absVal { return absVal{kind: vExact, region: -1, c0: c} }

func strideVal(s int64) absVal { return absVal{kind: vStride, s: s} }

// class projects an abstract value onto the three-point lattice.
func (v absVal) class() Class {
	switch v.kind {
	case vExact:
		if v.ct == 0 {
			return ClassUniform
		}
		return ClassAffine
	case vStride:
		if v.s == 0 {
			return ClassUniform
		}
		return ClassAffine
	default:
		return ClassDivergent
	}
}

// stride returns the tid coefficient mod 2^64. Callers must exclude vDiv.
func (v absVal) stride() int64 {
	if v.kind == vExact {
		return v.ct // region bases are warp-uniform
	}
	return v.s
}

// constant reports whether v is an exact region-free constant.
func (v absVal) constant() (int64, bool) {
	if v.kind == vExact && v.region < 0 && v.ct == 0 {
		return v.c0, true
	}
	return 0, false
}

// joinVal is the lattice join. Two different values with the same tid
// stride join to a stride (their bases differ but both are warp-uniform);
// anything else falls to divergent.
func joinVal(a, b absVal) absVal {
	if a == b {
		return a
	}
	if a.kind == vDiv || b.kind == vDiv {
		return divVal
	}
	if sa, sb := a.stride(), b.stride(); sa == sb {
		return strideVal(sa)
	}
	return divVal
}

// affLimit bounds the exact-affine coefficients: comfortably past any real
// region size, far enough from the int64 edge that bounds arithmetic with
// declared thread counts cannot wrap.
const affLimit = int64(1) << 40

// addRange adds two exact coefficients, reporting failure on int64 wrap or
// on leaving the ±affLimit window the exact domain promises.
func addRange(a, b int64) (int64, bool) {
	sum := a + b
	if (b > 0 && sum < a) || (b < 0 && sum > a) {
		return 0, false
	}
	if sum > affLimit || sum < -affLimit {
		return 0, false
	}
	return sum, true
}

// mulRange multiplies two exact coefficients with the same guarantees. The
// divide-back overflow test needs the MinInt64 operands excluded first
// (MinInt64 / -1 itself overflows).
func mulRange(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	const minInt64 = -1 << 63
	if a == minInt64 || b == minInt64 {
		return 0, false
	}
	prod := a * b
	if prod/b != a || prod > affLimit || prod < -affLimit {
		return 0, false
	}
	return prod, true
}

// Transfer-function helpers. Each returns the most precise abstract value
// it can prove; on exact-coefficient overflow they demote to the stride
// component, which wraps exactly like the machine.

func addVals(a, b absVal, sign int64) absVal {
	if a.kind == vDiv || b.kind == vDiv {
		return divVal
	}
	if a.kind == vExact && b.kind == vExact {
		// Addition may carry at most one region base; subtraction must not
		// cancel one (b must be region-free).
		region, exact := a.region, false
		switch {
		case sign > 0 && (a.region < 0 || b.region < 0):
			region, exact = max(a.region, b.region), true
		case sign < 0 && b.region < 0:
			exact = true
		}
		if exact {
			c0, ok0 := addRange(a.c0, sign*b.c0)
			ct, ok1 := addRange(a.ct, sign*b.ct)
			if ok0 && ok1 {
				return absVal{kind: vExact, region: region, c0: c0, ct: ct}
			}
		}
	}
	return strideVal(a.stride() + sign*b.stride())
}

func addImm(a absVal, imm int64) absVal {
	switch a.kind {
	case vExact:
		if c0, ok := addRange(a.c0, imm); ok {
			return absVal{kind: vExact, region: a.region, c0: c0, ct: a.ct}
		}
		return strideVal(a.ct)
	case vStride:
		return a
	default:
		return divVal
	}
}

func mulImm(a absVal, k int64) absVal {
	switch a.kind {
	case vExact:
		if a.region < 0 {
			c0, ok0 := mulRange(a.c0, k)
			ct, ok1 := mulRange(a.ct, k)
			if ok0 && ok1 {
				return absVal{kind: vExact, region: -1, c0: c0, ct: ct}
			}
		}
		return strideVal(a.ct * k)
	case vStride:
		return strideVal(a.s * k)
	default:
		return divVal
	}
}

func mulVals(a, b absVal) absVal {
	if ca, ok := a.constant(); ok {
		return mulImm(b, ca)
	}
	if cb, ok := b.constant(); ok {
		return mulImm(a, cb)
	}
	if a.class() == ClassUniform && b.class() == ClassUniform {
		return uniformVal
	}
	return divVal
}

// regState is the abstract register file at one program point.
type regState [isa.NumRegs]absVal

// stepDiv is the instruction transfer function.
func stepDiv(in isa.Inst, s *regState) {
	if !in.Op.WritesDst() || in.Dst == 0 {
		return
	}
	a := s[in.SrcA]
	b := s[in.SrcB]
	out := divVal
	switch in.Op {
	case isa.MOVI:
		out = exactConst(in.Imm)
	case isa.FMOVI:
		out = uniformVal // same float constant in every lane
	case isa.MOV:
		out = a
	case isa.ADD:
		out = addVals(a, b, 1)
	case isa.SUB:
		out = addVals(a, b, -1)
	case isa.ADDI:
		out = addImm(a, in.Imm)
	case isa.MULI:
		out = mulImm(a, in.Imm)
	case isa.SHLI:
		// The machine shifts by Imm&63 (exec.go); x<<k ≡ x·2^k mod 2^64.
		out = mulImm(a, int64(1)<<uint(in.Imm&63))
	case isa.MUL:
		out = mulVals(a, b)
	case isa.LD:
		out = divVal // depends on memory contents
	default:
		// Every other value-producing op is a deterministic function of its
		// register operands: uniform inputs give a uniform output. Nothing
		// stronger is claimed — in particular no equal-stride rule for
		// comparisons, which is unsound under int64 wraparound.
		uniform := in.Op.ReadsA() && a.class() == ClassUniform
		if uniform && in.Op.ReadsB() && b.class() != ClassUniform {
			uniform = false
		}
		if uniform {
			out = uniformVal
		}
	}
	s[in.Dst] = out
}

// entryState is the abstract register file at kernel entry under the
// launch ABI (see the package comment for the soundness contract).
func (p *Program) entryState() regState {
	var s regState
	for r := range s {
		s[r] = divVal
		if p.uniforms&(1<<r) != 0 {
			s[r] = uniformVal // declared warp-uniform scalar parameter
		}
	}
	s[0] = exactConst(0)
	s[1] = absVal{kind: vExact, region: -1, ct: 1} // global tid
	s[2] = uniformVal                              // thread count
	for i, r := range p.regions {
		s[r.Reg] = absVal{kind: vExact, region: i}
	}
	return s
}

// forceState applies a sync-point/loop forcing mask to a block-entry
// state: every register in the mask is demoted to divergent unless it is
// exact-affine (a pure function of tid is path- and trip-independent, so
// control divergence cannot desynchronise it).
func forceState(s regState, mask uint32) regState {
	if mask == 0 {
		return s
	}
	for r := 0; r < isa.NumRegs; r++ {
		if mask&(1<<r) != 0 && s[r].kind != vExact {
			s[r] = divVal
		}
	}
	return s
}

// divResult is the analysis output consumed by Build, Verify, and the
// divergence report.
type divResult struct {
	in          []regState    // per-block entry state (valid where reachable)
	branchClass map[int]Class // branch pc -> predicate class
	accesses    []accessState // pc-ordered
}

type accessState struct {
	pc    int
	block int
	store bool
	val   absVal // abstract address operand (before Imm displacement)
	imm   int64
}

// divFixpoint runs the inner forward fixpoint under a fixed set of
// per-block forcing masks.
func (p *Program) divFixpoint(g *cfgView, forced []uint32) []regState {
	return solve(g, false, forceState(p.entryState(), forced[0]),
		func(b int, s regState) regState {
			for pc := g.blocks[b].Start; pc < g.blocks[b].End; pc++ {
				stepDiv(p.Code[pc], &s)
			}
			return s
		},
		func(t int, old, nw regState, visits int) regState {
			if visits > 0 {
				for r := range nw {
					nw[r] = joinVal(old[r], nw[r])
				}
			}
			return forceState(nw, forced[t])
		})
}

// divForcing derives the per-block forcing masks from the current
// solution. Two rules:
//
// Rule 1 (sync points, Coutinho's control-dependence rule): for each branch
// whose predicate is not uniform, any register written inside the branch's
// divergence region (blocks reachable from its successors, stopping at the
// immediate post-dominator) is forced at every join inside the region and
// at the re-convergence block itself — different lanes may have run
// different writers, so the value is path-dependent.
//
// Rule 2 (loop widening under trip desynchronisation): DWS lets warp splits
// escape re-convergence (BranchBypass), creates them from memory divergence,
// and PC-merge (§4.5) can fuse sibling splits whose trip counts differ. Any
// loop forward-reachable from a split source (non-uniform branch predicate
// or non-uniform memory address) can therefore run its lanes on different
// iterations, so every register the loop writes is forced throughout the
// loop (again, exact-affine values are exempt: they are functions of tid,
// not of trip count).
func (p *Program) divForcing(g *cfgView, in []regState) []uint32 {
	n := len(g.blocks)
	forced := make([]uint32, n)

	written := make([]uint32, n)
	for i, blk := range g.blocks {
		for pc := blk.Start; pc < blk.End; pc++ {
			if d, ok := instDef(p.Code[pc]); ok {
				written[i] |= 1 << d
			}
		}
	}
	// Rule 1 at the divergent branch ending block b: sync-point injection.
	syncPoint := func(b int) {
		region := g.region(b)
		var w uint32
		for j, member := range region {
			if member {
				w |= written[j]
			}
		}
		for j, member := range region {
			if member && len(g.preds[j]) >= 2 {
				forced[j] |= w
			}
		}
		if stop := g.ipdom[b]; stop >= 0 { // -1 re-converges only at exit
			forced[stop] |= w
		}
	}

	// Classify split sources under the current (pre-forcing) solution.
	var hazards []int
	for i, blk := range g.blocks {
		if !g.reach[i] {
			continue
		}
		s := in[i]
		hazard := false
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := p.Code[pc]
			if (inst.Op.IsBranch() || inst.Op.IsMem()) && s[inst.SrcA].class() != ClassUniform {
				hazard = true
				if inst.Op.IsBranch() && len(blk.Succ) >= 2 {
					syncPoint(i)
				}
			}
			stepDiv(inst, &s)
		}
		if hazard {
			hazards = append(hazards, i)
		}
	}

	// Rule 2: widen loops tainted by an upstream split source.
	tainted := g.flood(hazards, false, -1)
	for _, scc := range g.cycles {
		if slices.ContainsFunc(scc, func(v int) bool { return tainted[v] }) {
			var w uint32
			for _, v := range scc {
				w |= written[v]
			}
			for _, v := range scc {
				forced[v] |= w
			}
		}
	}
	return forced
}

// analyzeDivergence runs the outer stabilisation loop: alternate the inner
// fixpoint with forcing-mask derivation until the masks stop growing. The
// masks grow monotonically (forcing only demotes values, which can only
// enlarge the set of non-uniform sources), so this terminates.
func (p *Program) analyzeDivergence(g *cfgView) *divResult {
	forced := make([]uint32, len(g.blocks))
	var in []regState
	for {
		in = p.divFixpoint(g, forced)
		next := p.divForcing(g, in)
		for i := range next {
			next[i] |= forced[i]
		}
		if slices.Equal(next, forced) {
			break
		}
		forced = next
	}

	res := &divResult{in: in, branchClass: make(map[int]Class)}
	for i, blk := range g.blocks {
		if !g.reach[i] {
			continue
		}
		s := in[i]
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := p.Code[pc]
			switch {
			case inst.Op.IsBranch():
				res.branchClass[pc] = s[inst.SrcA].class()
			case inst.Op.IsMem():
				res.accesses = append(res.accesses, accessState{
					pc: pc, block: i, store: inst.Op == isa.ST,
					val: s[inst.SrcA], imm: inst.Imm,
				})
			}
			stepDiv(inst, &s)
		}
	}
	return res
}

// DivergenceReport renders the per-kernel divergence analysis verdicts in
// a stable, golden-file-friendly format: every conditional branch with its
// predicate class and subdivide decision (flagging where the analysis
// disagrees with the bare short-block heuristic), and every memory access
// with its address class.
func (p *Program) DivergenceReport() string {
	var sb strings.Builder
	pcs := make([]int, 0, len(p.branches))
	for pc := range p.branches {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)

	var nu, na, nd int
	for _, pc := range pcs {
		switch p.branches[pc].Class {
		case ClassUniform:
			nu++
		case ClassAffine:
			na++
		default:
			nd++
		}
	}
	var au, aa, ad int
	for _, a := range p.memAccess {
		switch a.Class {
		case ClassUniform:
			au++
		case ClassAffine:
			aa++
		default:
			ad++
		}
	}
	fmt.Fprintf(&sb, "kernel %s: %d branches (%d uniform, %d affine, %d divergent), %d accesses (%d uniform, %d affine, %d divergent)\n",
		p.Name, len(pcs), nu, na, nd, len(p.memAccess), au, aa, ad)

	limit := p.shortLimit
	if limit <= 0 {
		limit = DefaultShortBlockLimit
	}
	blockOf := p.cfg.blockOf
	ai := 0
	for pc := 0; pc < len(p.Code); pc++ {
		if p.Code[pc].Op.IsBranch() {
			bi := p.branches[pc]
			heuristic := false
			if bi.IPdom != NoIPdom {
				heuristic = p.Blocks[blockOf[bi.IPdom]].Len() <= limit
			}
			fmt.Fprintf(&sb, "  branch @pc %-3d %-9s reconv=%s subdividable=%v",
				pc, bi.Class.String(), reconvName(bi.IPdom), bi.Subdividable)
			if heuristic != bi.Subdividable {
				sb.WriteString(" [short-join but statically uniform]")
			}
			sb.WriteByte('\n')
		}
		for ai < len(p.memAccess) && p.memAccess[ai].PC == pc {
			a := p.memAccess[ai]
			op := "ld"
			if a.Store {
				op = "st"
			}
			fmt.Fprintf(&sb, "  %s     @pc %-3d %s\n", op, pc, a.Class)
			ai++
		}
	}
	return sb.String()
}
