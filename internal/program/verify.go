// Program verifier: independent static checks over a built Program.
//
// The DWS mechanisms in internal/wpu (re-convergence stacks, warp-split
// table, PC merges) silently assume the program metadata they consume is
// right. A stale re-convergence PC makes a stack pop at the wrong place; a
// barrier on a divergent path deadlocks a warp; an ill-formed CFG breaks the
// post-dominator analysis that both rely on. Verify re-derives everything it
// can with algorithms deliberately different from the ones Build uses (the
// re-convergence check recomputes post-dominators with Cooper-Harvey-Kennedy
// on the reverse CFG rather than the bitset fixpoint in cfg.go) and reports
// findings instead of trusting the builder.
//
// Severity policy: structural problems that would make simulation wrong or
// crash (ill-formed CFG, unreachable code, wrong re-convergence points,
// reads of provably undefined registers, provable out-of-bounds accesses)
// are Err and fail Build. Hygiene findings (dead definitions, writes to the
// hardwired r0, barriers that are merely *potentially* under divergence)
// are Warn: Build tolerates them, MustVerify does not. The warp-uniform
// branch-over-barrier idiom is legal at runtime, so it must not be a build
// error — but the eight benchmarks are held to the stricter MustVerify bar.
package program

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Severity classifies a verifier finding.
type Severity uint8

const (
	// Warn marks hygiene findings: tolerated by Build, rejected by
	// MustVerify.
	Warn Severity = iota
	// Err marks structural findings that make the program unsafe to
	// simulate; Build fails on any of these.
	Err
)

// String returns "warn" or "error".
func (s Severity) String() string {
	if s == Err {
		return "error"
	}
	return "warn"
}

// Finding is one verifier diagnostic.
type Finding struct {
	// Check names the analysis that produced the finding (e.g.
	// "reconvergence", "def-use").
	Check    string
	Severity Severity
	// PC is the instruction index the finding refers to, or -1.
	PC int
	// Block is the basic-block ID the finding refers to, or -1.
	Block int
	Msg   string
}

// String renders the finding in the human-readable form the dwsverify
// command prints.
func (f Finding) String() string {
	var loc strings.Builder
	if f.PC >= 0 {
		fmt.Fprintf(&loc, " @pc %d", f.PC)
	}
	if f.Block >= 0 {
		fmt.Fprintf(&loc, " (B%d)", f.Block)
	}
	return fmt.Sprintf("[%s] %s%s: %s", f.Severity, f.Check, loc.String(), f.Msg)
}

// FormatFindings renders findings one per line.
func FormatFindings(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString("  ")
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Verify runs every static check and returns the findings, sorted
// deterministically. A nil result means the program passed clean.
//
// If the CFG itself is ill-formed (shape errors), only the shape findings
// are returned: the deeper analyses assume a well-formed block structure.
func (p *Program) Verify() []Finding {
	fs := p.checkShape()
	for _, f := range fs {
		if f.Severity == Err {
			sortFindings(fs)
			return fs
		}
	}
	// Recompute everything from the program as it stands rather than
	// trusting what Build recorded: a fresh CFG view (never the one Build
	// kept) and a fresh divergence run over it. checkReconvergence
	// cross-checks the recorded BranchInfo against that run and against CHK
	// post-dominators, checkBarriers takes predicate uniformity from the
	// run, and checkBounds consumes its exact-affine component.
	g := newCFGView(p.Blocks)
	div := p.analyzeDivergence(g)
	fs = append(fs, p.checkReachability(g)...)
	fs = append(fs, p.checkReconvergence(g, div)...)
	fs = append(fs, p.checkDefUse(g)...)
	fs = append(fs, p.checkDeadDefs(g)...)
	fs = append(fs, p.checkBarriers(g, div)...)
	fs = append(fs, p.checkBounds(div)...)
	fs = append(fs, p.checkMemAccess(div)...)
	fs = append(fs, p.checkCostModel(g)...)
	sortFindings(fs)
	return fs
}

// checkCostModel runs the static cost analysis (costmodel.go) over the
// fresh view under DefaultCostParams and the declared thread count, and
// checks the Lo<=Hi, non-negative invariants every interval must satisfy.
func (p *Program) checkCostModel(g *cfgView) []Finding {
	var fs []Finding
	fresh := p.costModel(g, CostParams{})
	bad := func(iv CostInterval) bool { return iv.Lo > iv.Hi || iv.Lo < 0 }
	if bad(fresh.Ticks) {
		fs = append(fs, Finding{
			PC: -1, Block: -1, Severity: Err, Check: "costmodel",
			Msg: fmt.Sprintf("tick bound inverted or negative: %s", fresh.Ticks),
		})
	}
	for i, b := range fresh.Buckets {
		if bad(b) {
			fs = append(fs, Finding{
				PC: -1, Block: -1, Severity: Err, Check: "costmodel",
				Msg: fmt.Sprintf("bucket %s bound inverted or negative: %s", CycleBucketLabels[i], b),
			})
		}
	}
	for _, bc := range fresh.Blocks {
		if bad(bc.Execs) {
			fs = append(fs, Finding{
				PC: -1, Block: bc.ID, Severity: Err, Check: "costmodel",
				Msg: fmt.Sprintf("block execution bound inverted or negative: %s", bc.Execs),
			})
		}
	}
	for _, lc := range fresh.Loops {
		if bad(lc.Trips) {
			fs = append(fs, Finding{
				PC: lc.HeaderPC, Block: lc.Header, Severity: Err, Check: "costmodel",
				Msg: fmt.Sprintf("trip bound inverted or negative: %s", lc.Trips),
			})
		}
	}
	for pc, iv := range fresh.Issues {
		if bad(iv) {
			fs = append(fs, Finding{
				PC: pc, Block: -1, Severity: Err, Check: "costmodel",
				Msg: fmt.Sprintf("issue bound inverted or negative: %s", iv),
			})
		}
	}
	return fs
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].PC != fs[j].PC {
			return fs[i].PC < fs[j].PC
		}
		if fs[i].Block != fs[j].Block {
			return fs[i].Block < fs[j].Block
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Msg < fs[j].Msg
	})
}

// checkShape validates the CFG's structural invariants: blocks tile the
// code, terminators appear only at block ends, successor edges match the
// terminators, and every register index is architectural. All its findings
// are Err; if any are present the rest of the verifier is skipped.
func (p *Program) checkShape() []Finding {
	var fs []Finding
	add := func(pc, blk int, format string, args ...any) {
		fs = append(fs, Finding{
			Check: "cfg-shape", Severity: Err, PC: pc, Block: blk,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	n := len(p.Code)
	if n == 0 {
		add(-1, -1, "empty program")
		return fs
	}
	if len(p.Blocks) == 0 {
		add(-1, -1, "no basic blocks")
		return fs
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			add(pc, -1, "invalid opcode %d", uint8(in.Op))
			continue
		}
		if in.Op.WritesDst() && in.Dst >= isa.NumRegs {
			add(pc, -1, "destination register r%d out of range", in.Dst)
		}
		if in.Op.ReadsA() && in.SrcA >= isa.NumRegs {
			add(pc, -1, "source register r%d out of range", in.SrcA)
		}
		if in.Op.ReadsB() && in.SrcB >= isa.NumRegs {
			add(pc, -1, "source register r%d out of range", in.SrcB)
		}
		if in.Op.IsControl() && (in.Target < 0 || in.Target >= n) {
			add(pc, -1, "branch target %d out of range", in.Target)
		}
	}
	if len(fs) > 0 {
		return fs
	}

	if p.Blocks[0].Start != 0 {
		add(-1, 0, "entry block starts at pc %d, not 0", p.Blocks[0].Start)
	}
	next := 0
	startToID := make(map[int]int, len(p.Blocks))
	for i, blk := range p.Blocks {
		if blk.ID != i {
			add(-1, i, "block ID %d at index %d", blk.ID, i)
		}
		if blk.Start != next || blk.End <= blk.Start || blk.End > n {
			add(-1, i, "blocks do not tile the code: B%d spans [%d,%d), expected start %d",
				i, blk.Start, blk.End, next)
		}
		startToID[blk.Start] = i
		next = blk.End
	}
	if next != n {
		add(-1, -1, "blocks cover %d of %d instructions", next, n)
	}
	if len(fs) > 0 {
		return fs
	}

	for _, blk := range p.Blocks {
		for pc := blk.Start; pc < blk.End-1; pc++ {
			op := p.Code[pc].Op
			if op.IsControl() || op == isa.HALT {
				add(pc, blk.ID, "terminator %s in the middle of a basic block", op)
			}
		}
		last := p.Code[blk.End-1]
		var want []int
		switch {
		case last.Op.IsBranch():
			if blk.End < n {
				want = append(want, startToID[blk.End])
			}
			t, ok := startToID[last.Target]
			if !ok {
				add(blk.End-1, blk.ID, "branch target pc %d is not a block leader", last.Target)
				continue
			}
			if len(want) == 0 || want[0] != t {
				want = append(want, t)
			}
		case last.Op == isa.JMP:
			t, ok := startToID[last.Target]
			if !ok {
				add(blk.End-1, blk.ID, "jump target pc %d is not a block leader", last.Target)
				continue
			}
			want = []int{t}
		case last.Op == isa.HALT:
			// Exit block: no successors.
		default:
			if blk.End >= n {
				add(blk.End-1, blk.ID, "control falls off the end of the program")
				continue
			}
			want = []int{startToID[blk.End]}
		}
		if len(want) != len(blk.Succ) {
			add(blk.End-1, blk.ID, "successor edges %v do not match terminator (want %v)", blk.Succ, want)
			continue
		}
		for i := range want {
			if blk.Succ[i] != want[i] {
				add(blk.End-1, blk.ID, "successor edges %v do not match terminator (want %v)", blk.Succ, want)
				break
			}
		}
	}
	return fs
}

// checkReachability flags unreachable basic blocks — dead code that the
// post-dominator analysis never exercised and the WPU can never execute.
func (p *Program) checkReachability(g *cfgView) []Finding {
	var fs []Finding
	for i, blk := range p.Blocks {
		if !g.reach[i] {
			fs = append(fs, Finding{
				Check: "reachability", Severity: Err, PC: blk.Start, Block: i,
				Msg: fmt.Sprintf("unreachable block (dead code, pcs %d..%d)", blk.Start, blk.End-1),
			})
		}
	}
	return fs
}

// checkReconvergence recomputes every branch's immediate post-dominator with
// an independent algorithm (Cooper-Harvey-Kennedy on the reverse CFG) and
// compares it against the metadata recorded by Build. This is the check that
// protects the paper's re-convergence stack and the WST's PC-merge test: a
// wrong re-convergence PC makes conventional warps pop their stacks at the
// wrong place and makes DWS splits merge at PCs that never match. It also
// cross-checks the recorded divergence verdict (Class) and the
// refined Subdividable rule (divergence-capable ∧ short-join) against a
// fresh analysis run, since the WPU's uniform-branch fast path trusts them.
func (p *Program) checkReconvergence(g *cfgView, div *divResult) []Finding {
	var fs []Finding
	vip := verifiedIPdom(p.Blocks)
	blockOf := g.blockOf
	limit := p.shortLimit
	if limit <= 0 {
		limit = DefaultShortBlockLimit
	}
	seen := 0
	for pc, in := range p.Code {
		if !in.Op.IsBranch() {
			continue
		}
		seen++
		bi, ok := p.branches[pc]
		if !ok {
			fs = append(fs, Finding{
				Check: "reconvergence", Severity: Err, PC: pc, Block: blockOf[pc],
				Msg: "branch has no recorded metadata",
			})
			continue
		}
		wantClass := ClassDivergent
		if c, ok := div.branchClass[pc]; ok {
			wantClass = c
		}
		want, wantSub := NoIPdom, false
		if d := vip[blockOf[pc]]; d >= 0 {
			want = p.Blocks[d].Start
			wantSub = p.Blocks[d].Len() <= limit && wantClass != ClassUniform
		}
		if bi.IPdom != want {
			fs = append(fs, Finding{
				Check: "reconvergence", Severity: Err, PC: pc, Block: blockOf[pc],
				Msg: fmt.Sprintf("recorded re-convergence pc %s, independent post-dominator analysis says %s",
					reconvName(bi.IPdom), reconvName(want)),
			})
			continue
		}
		if bi.Class != wantClass {
			fs = append(fs, Finding{
				Check: "reconvergence", Severity: Err, PC: pc, Block: blockOf[pc],
				Msg: fmt.Sprintf("recorded predicate class %s, divergence analysis says %s",
					bi.Class, wantClass),
			})
			continue
		}
		if bi.Subdividable != wantSub {
			fs = append(fs, Finding{
				Check: "reconvergence", Severity: Err, PC: pc, Block: blockOf[pc],
				Msg: fmt.Sprintf("subdividable=%v disagrees with the divergence-capable ∧ short-join rule (limit %d)",
					bi.Subdividable, limit),
			})
		}
	}
	if seen != len(p.branches) {
		extra := make([]int, 0, len(p.branches))
		for pc := range p.branches {
			if pc < 0 || pc >= len(p.Code) || !p.Code[pc].Op.IsBranch() {
				extra = append(extra, pc)
			}
		}
		sort.Ints(extra)
		for _, pc := range extra {
			fs = append(fs, Finding{
				Check: "reconvergence", Severity: Err, PC: pc, Block: -1,
				Msg: "branch metadata recorded for a non-branch instruction",
			})
		}
	}
	return fs
}

func reconvName(pc int) string {
	if pc == NoIPdom {
		return "exit"
	}
	return fmt.Sprintf("%d", pc)
}

// verifiedIPdom computes immediate post-dominators with the
// Cooper-Harvey-Kennedy algorithm run on the reverse CFG (virtual exit as
// root) — deliberately a different algorithm from the bitset fixpoint in
// cfg.go, so the two can cross-check each other. Returns the post-dominating
// block ID per block, or -1 when the block's only post-dominator is the
// virtual exit or the block cannot reach exit at all.
func verifiedIPdom(blocks []Block) []int {
	n := len(blocks)
	exit := n
	// Reverse-graph adjacency: an edge s->v here for every forward edge
	// v->s, with HALT blocks hanging off the virtual exit. The reverse DFS
	// from exit visits exactly the blocks that can terminate.
	radj := make([][]int, n+1)
	for v, b := range blocks {
		if len(b.Succ) == 0 {
			radj[exit] = append(radj[exit], v)
		}
		for _, s := range b.Succ {
			radj[s] = append(radj[s], v)
		}
	}
	idom := chkIdom(radj, exit)[:n]
	for v, d := range idom {
		if d == exit {
			idom[v] = -1
		}
	}
	return idom
}

// chkIdom is the Cooper-Harvey-Kennedy dominator algorithm over the graph
// with adjacency lists adj, from root: idom[v] is v's immediate dominator,
// idom[root] = root, and -1 marks a node the root does not reach. It shares
// no code with the view's dominance routine: post-dominators are checked
// against it in Build and Verify (via verifiedIPdom), forward dominators in
// the tests.
func chkIdom(adj [][]int, root int) []int {
	n := len(adj)
	radj := make([][]int, n)
	for v, out := range adj {
		for _, u := range out {
			radj[u] = append(radj[u], v)
		}
	}

	po := make([]int, n)
	visited := make([]bool, n)
	order := make([]int, 0, n) // postorder of the DFS from root
	type frame struct{ v, i int }
	stack := []frame{{root, 0}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(adj[f.v]) {
			u := adj[f.v][f.i]
			f.i++
			if !visited[u] {
				visited[u] = true
				stack = append(stack, frame{u, 0})
			}
		} else {
			po[f.v] = len(order)
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
		}
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for po[a] < po[b] {
				a = idom[a]
			}
			for po[b] < po[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		// Reverse postorder, skipping the root (last in postorder).
		for i := len(order) - 2; i >= 0; i-- {
			v := order[i]
			newIdom := -1
			for _, u := range radj[v] {
				if idom[u] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = u
				} else {
					newIdom = intersect(newIdom, u)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// instUses returns the registers an instruction reads.
func instUses(in isa.Inst) []isa.Reg {
	var uses []isa.Reg
	if in.Op.ReadsA() {
		uses = append(uses, in.SrcA)
	}
	if in.Op.ReadsB() && (!in.Op.ReadsA() || in.SrcB != in.SrcA) {
		uses = append(uses, in.SrcB)
	}
	return uses
}

// instDef returns the architectural register an instruction defines.
// Writes to the hardwired r0 are discarded by the register file, so they
// define nothing.
func instDef(in isa.Inst) (isa.Reg, bool) {
	if in.Op.WritesDst() && in.Dst != 0 {
		return in.Dst, true
	}
	return 0, false
}

// checkDefUse runs a forward must-be-defined dataflow analysis (intersection
// at joins) and flags reads of registers that are not defined on every path
// from entry. It only runs when the kernel declared its input registers
// (DeclareInputs/DeclareRegion): without the declared entry state every ABI
// input would be a false positive.
func (p *Program) checkDefUse(g *cfgView) []Finding {
	if !p.inputsDeclared {
		return nil
	}
	const abiRegs = 0b1111 // r0 hardwired, r1 tid, r2 nthreads, r3 local idx
	in := solve(g, false, abiRegs|p.inputs,
		func(b int, s uint32) uint32 {
			for pc := g.blocks[b].Start; pc < g.blocks[b].End; pc++ {
				if d, ok := instDef(p.Code[pc]); ok {
					s |= 1 << d
				}
			}
			return s
		},
		func(_ int, old, nw uint32, visits int) uint32 {
			if visits == 0 {
				return nw
			}
			return old & nw
		})
	var fs []Finding
	for i, blk := range g.blocks {
		if !g.reach[i] {
			continue
		}
		s := in[i]
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := p.Code[pc]
			for _, r := range instUses(inst) {
				if r != 0 && s&(1<<r) == 0 {
					fs = append(fs, Finding{
						Check: "def-use", Severity: Err, PC: pc, Block: i,
						Msg: fmt.Sprintf("r%d may be read before it is defined", r),
					})
				}
			}
			if d, ok := instDef(inst); ok {
				s |= 1 << d
			}
		}
	}
	return fs
}

// checkDeadDefs runs backward liveness and flags definitions whose value can
// never be read, plus writes to the hardwired r0. Both are Warn: harmless
// at runtime, but in a hand-written benchmark they usually mean the kernel
// does not compute what its author thought.
func (p *Program) checkDeadDefs(g *cfgView) []Finding {
	stepBack := func(inst isa.Inst, live uint32) uint32 {
		if d, ok := instDef(inst); ok {
			live &^= 1 << d
		}
		for _, r := range instUses(inst) {
			live |= 1 << r
		}
		return live
	}
	liveOut := solve(g, true, 0,
		func(b int, live uint32) uint32 {
			for pc := g.blocks[b].End - 1; pc >= g.blocks[b].Start; pc-- {
				live = stepBack(p.Code[pc], live)
			}
			return live
		},
		func(_ int, old, nw uint32, _ int) uint32 { return old | nw })
	var fs []Finding
	for i, blk := range g.blocks {
		if !g.reach[i] {
			continue
		}
		live := liveOut[i]
		for pc := blk.End - 1; pc >= blk.Start; pc-- {
			inst := p.Code[pc]
			if inst.Op.WritesDst() {
				switch {
				case inst.Dst == 0:
					fs = append(fs, Finding{
						Check: "dead-def", Severity: Warn, PC: pc, Block: i,
						Msg: "write to the hardwired r0 has no effect",
					})
				case live&(1<<inst.Dst) == 0:
					fs = append(fs, Finding{
						Check: "dead-def", Severity: Warn, PC: pc, Block: i,
						Msg: fmt.Sprintf("r%d defined here is never read", inst.Dst),
					})
				}
			}
			live = stepBack(inst, live)
		}
	}
	return fs
}

// checkBarriers flags barriers reachable between a potentially divergent
// branch and that branch's re-convergence point — the deadlock DWS must
// never create (§3.4): if the warp splits at the branch, only some lanes
// arrive at the barrier while the rest wait beyond it. Whether a predicate
// can diverge is the divergence analysis's verdict (dataflow.go); it is
// conservative — a predicate it cannot prove uniform may still be uniform in
// every launch — so the finding is Warn, not Err.
func (p *Program) checkBarriers(g *cfgView, div *divResult) []Finding {
	var barriers []int
	for pc, in := range p.Code {
		if in.Op == isa.BARRIER {
			barriers = append(barriers, pc)
		}
	}
	if len(barriers) == 0 {
		return nil
	}
	// flagged[barrier pc] -> lowest divergent branch pc that reaches it.
	flagged := make(map[int]int)
	for pc, in := range p.Code {
		b := g.blockOf[pc]
		if !in.Op.IsBranch() || !g.reach[b] || len(g.blocks[b].Succ) < 2 || div.branchClass[pc] == ClassUniform {
			continue
		}
		region := g.region(b)
		for _, q := range barriers {
			if _, dup := flagged[q]; !dup && region[g.blockOf[q]] {
				flagged[q] = pc
			}
		}
	}
	var fs []Finding
	for _, q := range barriers {
		if pc, ok := flagged[q]; ok {
			fs = append(fs, Finding{
				Check: "barrier-divergence", Severity: Warn, PC: q, Block: g.blockOf[q],
				Msg: fmt.Sprintf("barrier reachable under potentially divergent branch @pc %d before re-convergence: a warp whose lanes disagree there deadlocks here", pc),
			})
		}
	}
	return fs
}

// checkBounds consumes the exact-affine component of the divergence
// analysis (dataflow.go, the vExact kind — the successor of the previous
// ad-hoc affine pattern-matcher here) and flags loads/stores whose
// effective address provably falls outside the declared memory region for
// every launch of up to DeclareThreads threads. It only fires where the
// address is region-relative and affine in the thread id with exact
// constant coefficients; anything data-dependent is left to the functional
// checks.
func (p *Program) checkBounds(div *divResult) []Finding {
	if len(p.regions) == 0 {
		return nil
	}
	var fs []Finding
	for _, a := range div.accesses {
		if f, bad := p.boundsAt(a.pc, a.block, a.val, a.imm); bad {
			fs = append(fs, f)
		}
	}
	return fs
}

// checkMemAccess recomputes the static access-pattern table (memaccess.go)
// from the fresh divergence run and compares it against the table Build
// recorded — the table the WPU's subdivide-on-miss hints and per-pc
// transaction bounds are derived from, so a stale entry would prune probes
// or flag concordance violations based on facts the code no longer has.
// It also cross-checks the table against the exact-affine bounds domain:
// where the address is region-relative with exact coefficients, the
// recorded stride must equal the tid coefficient the bounds check uses,
// and the recorded footprint must fit inside the bounds check's offset
// span for any launch of at least a warp's worth of threads.
func (p *Program) checkMemAccess(div *divResult) []Finding {
	var fs []Finding
	add := func(pc, blk int, format string, args ...any) {
		fs = append(fs, Finding{
			Check: "memaccess", Severity: Err, PC: pc, Block: blk,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	want := p.buildMemAccess(div, DefaultMemParams)
	if len(want) != len(p.memAccess) {
		add(-1, -1, "recorded access table has %d entries, fresh analysis has %d", len(p.memAccess), len(want))
		return fs
	}
	for i, w := range want {
		g := p.memAccess[i]
		if g != w {
			add(w.PC, div.accesses[i].block,
				"recorded access verdict %s %s disagrees with fresh analysis %s %s",
				g.AClass, g.boundSummary(), w.AClass, w.boundSummary())
			continue
		}
		a := div.accesses[i]
		if a.val.kind != vExact {
			continue
		}
		if cls := a.val.class(); cls != g.Class {
			add(w.PC, a.block, "bounds domain sees class %s, recorded table says %s", cls, g.Class)
			continue
		}
		if g.Class != ClassDivergent && a.val.stride() != g.StrideBytes {
			add(w.PC, a.block, "bounds domain tid coefficient %d, recorded stride %d", a.val.stride(), g.StrideBytes)
			continue
		}
		// Footprint vs the bounds-check offset span: with block-distributed
		// consecutive lane tids, one warp's span is a sub-range of the
		// whole launch's, so the footprint may never exceed it.
		if g.FootprintBytes >= 0 && a.val.ct != 0 && p.maxThreads >= DefaultMemParams.Lanes {
			span := a.val.ct * int64(p.maxThreads-1)
			if span < 0 {
				span = -span
			}
			if g.FootprintBytes > span+isa.WordSize {
				add(w.PC, a.block, "footprint %d B exceeds the bounds-domain span %d B for %d threads",
					g.FootprintBytes, span+isa.WordSize, p.maxThreads)
			}
		}
	}
	return fs
}

func (p *Program) boundsAt(pc, blk int, a absVal, imm int64) (Finding, bool) {
	if a.kind != vExact || a.region < 0 {
		return Finding{}, false
	}
	if a.ct != 0 && p.maxThreads <= 0 {
		return Finding{}, false // thread count undeclared: range unbounded
	}
	off := a.c0 + imm
	lo, hi := off, off
	if a.ct != 0 {
		span := a.ct * int64(p.maxThreads-1)
		if span < 0 {
			lo += span
		} else {
			hi += span
		}
	}
	size := p.regions[a.region].Words * isa.WordSize
	if lo >= 0 && hi+isa.WordSize <= size {
		return Finding{}, false
	}
	return Finding{
		Check: "mem-bounds", Severity: Err, PC: pc, Block: blk,
		Msg: fmt.Sprintf("access offset range [%d,%d] exceeds region r%d (%d bytes, %d words)",
			lo, hi+isa.WordSize-1, p.regions[a.region].Reg, size, p.regions[a.region].Words),
	}, true
}
