// Package program provides the "compiler layer" of the simulator: a builder
// DSL for writing kernels against the ISA, control-flow-graph construction,
// post-dominator analysis, and the paper's static heuristic for selecting
// which branches are allowed to subdivide warps.
//
// The paper (§3.3, §4.3) manually instruments post-dominators and
// subdividable branches and notes that "in practice this process would be
// automated by the compiler". This package is that compiler: Build computes
// every conditional branch's immediate post-dominator from the CFG, and
// marks the branch subdividable when the basic block following the
// post-dominator is no longer than ShortBlockLimit instructions (50 in the
// paper, chosen because executing 50 instructions roughly covers an L1 miss).
package program

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// ShortBlockLimit is the paper's threshold (§4.3) on the length of the
// basic block following a branch's post-dominator, below which the branch
// is allowed to subdivide warps.
const ShortBlockLimit = 50

// BranchInfo is the per-branch metadata the WPU front end consumes.
type BranchInfo struct {
	// IPdom is the instruction index of the branch's immediate
	// post-dominator — the conventional re-convergence point. NoIPdom means
	// the paths only re-join at kernel termination.
	IPdom int
	// Subdividable reports whether static analysis allows dynamic warp
	// subdivision at this branch: the predicate must be divergence-capable
	// (Class != ClassUniform) and the join block short (§4.3).
	Subdividable bool
	// Class is the divergence analysis verdict on the branch predicate
	// (see dataflow.go). ClassUniform is a statically proven warp-uniform
	// predicate: every co-executing lane takes the branch the same way.
	// The verdict reaches the WPU only through Subdividable.
	Class Class
}

// NoIPdom marks a branch whose divergent paths re-converge only at kernel
// termination (e.g. one arm halts).
const NoIPdom = -1

// Block is one basic block of the control-flow graph.
type Block struct {
	ID    int
	Start int // first instruction index
	End   int // one past the last instruction index
	Succ  []int
}

// Len returns the number of instructions in the block.
func (b Block) Len() int { return b.End - b.Start }

// RegionDecl declares a memory region reachable through a base register:
// the launcher is expected to point Reg at a buffer of Words 8-byte words.
// The verifier's bounds check interprets addresses relative to these.
type RegionDecl struct {
	Reg   isa.Reg
	Words int64
}

// Program is a validated, analysed kernel ready for simulation.
type Program struct {
	Name   string
	Code   []isa.Inst
	Blocks []Block

	// branches is the per-branch metadata, keyed by instruction index. Its
	// IPdom is the re-convergence table the WPU consumes: computed from the
	// view's post-dominator sets and, before Build returns, checked equal to
	// the verifier's independent Cooper-Harvey-Kennedy recomputation.
	branches map[int]BranchInfo

	// cfg is the CFG view Build derived every analysis from (cfg.go). The
	// on-demand cost model (CostModelFor) and the reports reuse it; Verify
	// never does — it rebuilds a view from Blocks as they are now.
	cfg *cfgView

	// Static declarations carried over from the Builder; they gate the
	// def-use and bounds checks.
	inputs         uint32 // bitmask of declared entry-defined registers
	uniforms       uint32 // subset the launcher promises warp-uniform
	inputsDeclared bool
	regions        []RegionDecl
	uranges        []UniformRange // declared value ranges of uniform inputs
	maxThreads     int

	// memAccess is the static access-pattern table per load/store under
	// DefaultMemParams, in pc order (see memaccess.go): the one home of the
	// divergence analysis verdict on each address (Class). The verifier
	// cross-checks it against a fresh analysis run; the WPU derives
	// machine-specific transaction bounds from it via MemAccessFor.
	memAccess []MemAccessInfo

	// decoded is the dispatch-ready lowering of Code the WPU issue loop
	// consumes: one isa.Decoded per pc, with the analysis-driven flags
	// (uniform, subdividable) and the verified re-convergence pc folded in
	// so an issue never touches the branches map. Populated by Build after
	// verification passes.
	decoded []isa.Decoded

	// findings is what the verifier reported at Build time (warnings only:
	// an error fails the build). MustVerify consults it instead of running
	// the whole analysis a second time on a program that cannot have changed.
	findings []Finding

	verified bool
}

// Decoded returns the dispatch-ready instruction stream, index-parallel
// with Code. The slice is shared, not copied: it is the WPU's hot-path
// view of the program and must not be mutated.
func (p *Program) Decoded() []isa.Decoded { return p.decoded }

// Branch returns the metadata for the conditional branch at pc.
func (p *Program) Branch(pc int) (BranchInfo, bool) {
	bi, ok := p.branches[pc]
	return bi, ok
}

// NumBranches returns the number of conditional branches in the program.
func (p *Program) NumBranches() int { return len(p.branches) }

// Verified reports whether the program passed the structural verifier at
// Build time. The WPU refuses to launch unverified programs.
func (p *Program) Verified() bool { return p.verified }

// ReconvPC returns the verified re-convergence pc for the branch at pc —
// the value the WPU's re-convergence stack and warp-split table consume.
// NoIPdom means the divergent paths re-join only at kernel termination.
func (p *Program) ReconvPC(pc int) (int, bool) {
	bi, ok := p.branches[pc]
	return bi.IPdom, ok
}

// Regions returns the declared memory regions (for tooling display).
func (p *Program) Regions() []RegionDecl {
	return append([]RegionDecl(nil), p.regions...)
}

// Disassemble renders the program with block boundaries and branch
// metadata, for debugging kernels.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	blockAt := make(map[int]int)
	for _, b := range p.Blocks {
		blockAt[b.Start] = b.ID
	}
	// Cost-model annotation (costmodel.go): per-block execution bounds on
	// block headers.
	execAt := make(map[int]CostInterval)
	for _, bc := range p.CostModel().Blocks {
		execAt[bc.ID] = bc.Execs
	}
	ai := 0
	for pc, in := range p.Code {
		if id, ok := blockAt[pc]; ok {
			fmt.Fprintf(&sb, "B%d:", id)
			if iv, ok := execAt[id]; ok {
				fmt.Fprintf(&sb, "\t; execs=%s", iv)
			}
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "  %4d  %s", pc, in)
		if bi, ok := p.branches[pc]; ok {
			if bi.IPdom == NoIPdom {
				sb.WriteString("\t; ipdom=exit")
			} else {
				fmt.Fprintf(&sb, "\t; ipdom=@%d", bi.IPdom)
			}
			fmt.Fprintf(&sb, " %s", bi.Class)
			if bi.Subdividable {
				sb.WriteString(" subdividable")
			}
		}
		for ai < len(p.memAccess) && p.memAccess[ai].PC < pc {
			ai++
		}
		if ai < len(p.memAccess) && p.memAccess[ai].PC == pc {
			a := p.memAccess[ai]
			fmt.Fprintf(&sb, "\t; %s tx<=%d", a.AClass, a.Transactions)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Builder assembles a kernel instruction by instruction. Branch targets are
// symbolic labels resolved at Build time.
type Builder struct {
	name   string
	code   []isa.Inst
	labels map[string]int
	fixups map[int]string // instruction index -> unresolved label

	inputs         uint32
	uniforms       uint32
	inputsDeclared bool
	regions        []RegionDecl
	uranges        []UniformRange
	maxThreads     int
}

// NewBuilder returns a Builder for a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// DeclareInputs declares the registers the launcher preloads beyond the ABI
// trio (r1 tid, r2 thread count, r3 local index). Declaring inputs — here or
// via DeclareRegion — turns on the verifier's def-before-use check: every
// other register must then be written before it is read on all paths.
func (b *Builder) DeclareInputs(regs ...isa.Reg) {
	b.inputsDeclared = true
	for _, r := range regs {
		if r < isa.NumRegs {
			b.inputs |= 1 << r
		}
	}
}

// DeclareUniformInputs declares inputs the launcher additionally promises
// to preload with the SAME value in every thread (scalar kernel parameters:
// sizes, pitches, iteration constants). The divergence analysis treats them
// as warp-uniform, which is what lets it classify parameter-indexed
// addresses as uniform or affine instead of divergent-gather. The promise
// is the launcher's to keep — it cannot be checked statically — but the
// trace-backed concordance tests observe every benchmark kernel dynamically
// and a broken promise surfaces as a divergence or transaction-bound
// violation there. The ABI trio and region bases need no declaration.
func (b *Builder) DeclareUniformInputs(regs ...isa.Reg) {
	b.DeclareInputs(regs...)
	for _, r := range regs {
		if r < isa.NumRegs {
			b.uniforms |= 1 << r
		}
	}
}

// DeclareRegion declares that the launcher points reg at a memory region of
// the given number of 8-byte words. The register counts as a declared input,
// and the verifier statically bounds-checks every access whose address is
// affine in the thread id relative to the region base.
func (b *Builder) DeclareRegion(reg isa.Reg, words int64) {
	b.DeclareInputs(reg)
	b.regions = append(b.regions, RegionDecl{Reg: reg, Words: words})
}

// DeclareThreads declares the maximum thread count the kernel is launched
// with, giving the bounds check the range of the thread id.
func (b *Builder) DeclareThreads(n int) { b.maxThreads = n }

// Label defines a label at the current position. Defining the same label
// twice panics: it is a static kernel-authoring bug.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("program: duplicate label " + name)
	}
	b.labels[name] = len(b.code)
}

// Emit appends a raw instruction. Prefer the typed helpers.
func (b *Builder) Emit(in isa.Inst) { b.code = append(b.code, in) }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

func (b *Builder) branchTo(op isa.Op, src isa.Reg, label string) {
	b.fixups[len(b.code)] = label
	b.code = append(b.code, isa.Inst{Op: op, SrcA: src})
}

// R-format helpers.

func (b *Builder) op3(op isa.Op, dst, a, c isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: dst, SrcA: a, SrcB: c})
}

func (b *Builder) opImm(op isa.Op, dst, a isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Dst: dst, SrcA: a, Imm: imm})
}

// Add emits dst = a + c.
func (b *Builder) Add(dst, a, c isa.Reg) { b.op3(isa.ADD, dst, a, c) }

// Sub emits dst = a - c.
func (b *Builder) Sub(dst, a, c isa.Reg) { b.op3(isa.SUB, dst, a, c) }

// Mul emits dst = a * c.
func (b *Builder) Mul(dst, a, c isa.Reg) { b.op3(isa.MUL, dst, a, c) }

// Div emits dst = a / c (0 on divide-by-zero).
func (b *Builder) Div(dst, a, c isa.Reg) { b.op3(isa.DIV, dst, a, c) }

// Rem emits dst = a % c (0 on divide-by-zero).
func (b *Builder) Rem(dst, a, c isa.Reg) { b.op3(isa.REM, dst, a, c) }

// And emits dst = a & c.
func (b *Builder) And(dst, a, c isa.Reg) { b.op3(isa.AND, dst, a, c) }

// Or emits dst = a | c.
func (b *Builder) Or(dst, a, c isa.Reg) { b.op3(isa.OR, dst, a, c) }

// Xor emits dst = a ^ c.
func (b *Builder) Xor(dst, a, c isa.Reg) { b.op3(isa.XOR, dst, a, c) }

// Shl emits dst = a << c.
func (b *Builder) Shl(dst, a, c isa.Reg) { b.op3(isa.SHL, dst, a, c) }

// Shr emits dst = a >> c (logical).
func (b *Builder) Shr(dst, a, c isa.Reg) { b.op3(isa.SHR, dst, a, c) }

// Slt emits dst = (a < c).
func (b *Builder) Slt(dst, a, c isa.Reg) { b.op3(isa.SLT, dst, a, c) }

// Sle emits dst = (a <= c).
func (b *Builder) Sle(dst, a, c isa.Reg) { b.op3(isa.SLE, dst, a, c) }

// Seq emits dst = (a == c).
func (b *Builder) Seq(dst, a, c isa.Reg) { b.op3(isa.SEQ, dst, a, c) }

// Sne emits dst = (a != c).
func (b *Builder) Sne(dst, a, c isa.Reg) { b.op3(isa.SNE, dst, a, c) }

// Min emits dst = min(a, c).
func (b *Builder) Min(dst, a, c isa.Reg) { b.op3(isa.MIN, dst, a, c) }

// Max emits dst = max(a, c).
func (b *Builder) Max(dst, a, c isa.Reg) { b.op3(isa.MAX, dst, a, c) }

// Addi emits dst = a + imm.
func (b *Builder) Addi(dst, a isa.Reg, imm int64) { b.opImm(isa.ADDI, dst, a, imm) }

// Muli emits dst = a * imm.
func (b *Builder) Muli(dst, a isa.Reg, imm int64) { b.opImm(isa.MULI, dst, a, imm) }

// Andi emits dst = a & imm.
func (b *Builder) Andi(dst, a isa.Reg, imm int64) { b.opImm(isa.ANDI, dst, a, imm) }

// Shli emits dst = a << imm.
func (b *Builder) Shli(dst, a isa.Reg, imm int64) { b.opImm(isa.SHLI, dst, a, imm) }

// Shri emits dst = a >> imm (logical).
func (b *Builder) Shri(dst, a isa.Reg, imm int64) { b.opImm(isa.SHRI, dst, a, imm) }

// Slti emits dst = (a < imm).
func (b *Builder) Slti(dst, a isa.Reg, imm int64) { b.opImm(isa.SLTI, dst, a, imm) }

// Movi emits dst = imm.
func (b *Builder) Movi(dst isa.Reg, imm int64) { b.Emit(isa.Inst{Op: isa.MOVI, Dst: dst, Imm: imm}) }

// Mov emits dst = a.
func (b *Builder) Mov(dst, a isa.Reg) { b.Emit(isa.Inst{Op: isa.MOV, Dst: dst, SrcA: a}) }

// Float helpers.

// Fadd emits dst = a + c (float).
func (b *Builder) Fadd(dst, a, c isa.Reg) { b.op3(isa.FADD, dst, a, c) }

// Fsub emits dst = a - c (float).
func (b *Builder) Fsub(dst, a, c isa.Reg) { b.op3(isa.FSUB, dst, a, c) }

// Fmul emits dst = a * c (float).
func (b *Builder) Fmul(dst, a, c isa.Reg) { b.op3(isa.FMUL, dst, a, c) }

// Fdiv emits dst = a / c (float).
func (b *Builder) Fdiv(dst, a, c isa.Reg) { b.op3(isa.FDIV, dst, a, c) }

// Fneg emits dst = -a (float).
func (b *Builder) Fneg(dst, a isa.Reg) { b.Emit(isa.Inst{Op: isa.FNEG, Dst: dst, SrcA: a}) }

// Fabs emits dst = |a| (float).
func (b *Builder) Fabs(dst, a isa.Reg) { b.Emit(isa.Inst{Op: isa.FABS, Dst: dst, SrcA: a}) }

// Fmin emits dst = min(a, c) (float).
func (b *Builder) Fmin(dst, a, c isa.Reg) { b.op3(isa.FMIN, dst, a, c) }

// Fmax emits dst = max(a, c) (float).
func (b *Builder) Fmax(dst, a, c isa.Reg) { b.op3(isa.FMAX, dst, a, c) }

// Fslt emits dst = (a < c) comparing floats, integer result.
func (b *Builder) Fslt(dst, a, c isa.Reg) { b.op3(isa.FSLT, dst, a, c) }

// Fsle emits dst = (a <= c) comparing floats, integer result.
func (b *Builder) Fsle(dst, a, c isa.Reg) { b.op3(isa.FSLE, dst, a, c) }

// Fmovi emits dst = f (float immediate).
func (b *Builder) Fmovi(dst isa.Reg, f float64) {
	b.Emit(isa.Inst{Op: isa.FMOVI, Dst: dst, FImm: f})
}

// Itof emits dst = float(a).
func (b *Builder) Itof(dst, a isa.Reg) { b.Emit(isa.Inst{Op: isa.ITOF, Dst: dst, SrcA: a}) }

// Ftoi emits dst = int(a), truncating.
func (b *Builder) Ftoi(dst, a isa.Reg) { b.Emit(isa.Inst{Op: isa.FTOI, Dst: dst, SrcA: a}) }

// Memory helpers.

// Ld emits dst = mem[base + off].
func (b *Builder) Ld(dst, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.LD, Dst: dst, SrcA: base, Imm: off})
}

// St emits mem[base + off] = val.
func (b *Builder) St(val, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.ST, SrcB: val, SrcA: base, Imm: off})
}

// Control-flow helpers.

// Beqz emits a branch to label when src == 0.
func (b *Builder) Beqz(src isa.Reg, label string) { b.branchTo(isa.BEQZ, src, label) }

// Bnez emits a branch to label when src != 0.
func (b *Builder) Bnez(src isa.Reg, label string) { b.branchTo(isa.BNEZ, src, label) }

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) { b.branchTo(isa.JMP, 0, label) }

// Barrier emits a kernel-wide thread barrier.
func (b *Builder) Barrier() { b.Emit(isa.Inst{Op: isa.BARRIER}) }

// Halt emits thread termination.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Nop emits a no-op (useful to pad blocks in microbenchmarks and tests).
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Build resolves labels, validates the kernel, constructs the CFG, runs
// post-dominator analysis, applies the subdivide-branch heuristic, and runs
// the static verifier (verify.go). Any Err-severity finding fails the build;
// Warn findings are tolerated here and rejected only by MustVerify.
//
// Every call returns a Program of its own. A Program is immutable once
// built (Code, Blocks and the slices its accessors share must not be
// written to), so one may be shared by any number of machines and
// goroutines: the workloads build each kernel once per prepared benchmark.
func (b *Builder) Build() (*Program, error) {
	code, err := b.resolve()
	if err != nil {
		return nil, err
	}
	return b.build(code)
}

// resolve copies the code with every branch label replaced by its target.
func (b *Builder) resolve() ([]isa.Inst, error) {
	if len(b.code) == 0 {
		return nil, fmt.Errorf("program %q: empty", b.name)
	}
	code := make([]isa.Inst, len(b.code))
	copy(code, b.code)
	// Resolve fixups in pc order so the first error reported (and the whole
	// build) is independent of map iteration order.
	fixupPCs := make([]int, 0, len(b.fixups))
	for pc := range b.fixups {
		fixupPCs = append(fixupPCs, pc)
	}
	sort.Ints(fixupPCs)
	for _, pc := range fixupPCs {
		label := b.fixups[pc]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q at pc %d", b.name, label, pc)
		}
		code[pc].Target = target
	}
	return code, nil
}

// build analyses and verifies resolved code into a new Program, which takes
// ownership of the slice.
func (b *Builder) build(code []isa.Inst) (*Program, error) {
	for pc, in := range code {
		if !in.Op.Valid() {
			return nil, fmt.Errorf("program %q: invalid opcode at pc %d", b.name, pc)
		}
		if in.Op.IsControl() && (in.Target < 0 || in.Target >= len(code)) {
			return nil, fmt.Errorf("program %q: branch target %d out of range at pc %d", b.name, in.Target, pc)
		}
	}
	last := code[len(code)-1]
	if last.Op != isa.HALT && last.Op != isa.JMP {
		return nil, fmt.Errorf("program %q: control can fall off the end (last op %s)", b.name, last.Op)
	}

	p := &Program{Name: b.name, Code: code, branches: make(map[int]BranchInfo)}
	p.Blocks = buildCFG(code)
	g := newCFGView(p.Blocks)
	p.cfg = g
	for pc, in := range code {
		if !in.Op.IsBranch() {
			continue
		}
		bi := BranchInfo{IPdom: NoIPdom}
		if d := g.ipdom[g.blockOf[pc]]; d >= 0 {
			dblk := p.Blocks[d]
			bi.IPdom = dblk.Start
			// §4.3: subdivide only when the block following the
			// post-dominator is short. The paper's phrasing refers to the
			// code executed from the re-convergence point; we measure the
			// post-dominator block itself.
			bi.Subdividable = dblk.Len() <= ShortBlockLimit
		}
		p.branches[pc] = bi
	}

	// Carry the static declarations over and verify. Only Err findings fail
	// the build — warnings are surfaced by MustVerify and dwsverify.
	seenRegion := make(map[isa.Reg]bool)
	for _, r := range b.regions {
		if r.Reg == 0 || r.Reg >= isa.NumRegs {
			return nil, fmt.Errorf("program %q: region base r%d invalid", b.name, r.Reg)
		}
		if r.Words <= 0 {
			return nil, fmt.Errorf("program %q: region at r%d has non-positive size %d", b.name, r.Reg, r.Words)
		}
		if seenRegion[r.Reg] {
			return nil, fmt.Errorf("program %q: region base r%d declared twice", b.name, r.Reg)
		}
		seenRegion[r.Reg] = true
	}
	for _, u := range b.uranges {
		if u.Reg == 0 || u.Reg >= isa.NumRegs {
			return nil, fmt.Errorf("program %q: uniform range on r%d invalid", b.name, u.Reg)
		}
		if u.Lo > u.Hi {
			return nil, fmt.Errorf("program %q: uniform range at r%d is empty [%d,%d]", b.name, u.Reg, u.Lo, u.Hi)
		}
	}
	p.inputs = b.inputs
	p.uniforms = b.uniforms
	p.inputsDeclared = b.inputsDeclared
	p.regions = append([]RegionDecl(nil), b.regions...)
	p.uranges = append([]UniformRange(nil), b.uranges...)
	p.maxThreads = b.maxThreads

	// Divergence analysis (dataflow.go) refines the §4.3 selection: a
	// branch whose predicate is provably warp-uniform can never split a
	// warp, so it is excluded from subdivision however short its join
	// block.
	div := p.analyzeDivergence(g)
	for pc, in := range code {
		if !in.Op.IsBranch() {
			continue
		}
		bi := p.branches[pc]
		bi.Class = ClassDivergent
		if c, ok := div.branchClass[pc]; ok {
			bi.Class = c
		}
		bi.Subdividable = bi.Subdividable && bi.Class != ClassUniform
		p.branches[pc] = bi
	}
	// The memory-side analysis (memaccess.go): classify every load/store's
	// warp access pattern and bound its worst-case line transactions. The
	// verifier below recomputes and cross-checks this table.
	p.memAccess = p.buildMemAccess(div, DefaultMemParams)

	p.findings = p.Verify()
	var errs []Finding
	for _, f := range p.findings {
		if f.Severity == Err {
			errs = append(errs, f)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("program %q: verifier found %d error(s):\n%s",
			b.name, len(errs), FormatFindings(errs))
	}

	// Lower the verified program into the pre-decoded dispatch stream,
	// folding in the per-branch analysis verdicts and re-convergence pcs —
	// which the verifier's independent post-dominator pass just agreed with
	// — so issue-time dispatch never consults a map.
	p.decoded = isa.DecodeProgram(code)
	for pc := range p.decoded {
		d := &p.decoded[pc]
		if d.Kind != isa.KindBranch {
			continue
		}
		bi := p.branches[pc]
		if bi.Subdividable {
			d.Flags |= isa.DFSubdiv
		}
		d.Reconv = int32(bi.IPdom)
	}
	// Fold the access classes into the decoded memory instructions: the
	// 2-bit class feeds the WPU's per-class concordance counters.
	for _, a := range p.memAccess {
		p.decoded[a.PC].SetMemClass(uint8(a.AClass))
	}
	p.verified = true
	return p, nil
}

// MustBuild is Build for statically known-good kernels; it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// MustVerify is MustBuild with a zero-findings bar: it panics if the
// verifier reported anything at all, warnings included. The eight benchmark
// kernels are built with this.
func (b *Builder) MustVerify() *Program {
	p := b.MustBuild()
	if len(p.findings) > 0 {
		panic(fmt.Sprintf("program %q: verifier findings:\n%s", p.Name, FormatFindings(p.findings)))
	}
	return p
}
