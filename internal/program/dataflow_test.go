package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestClassString(t *testing.T) {
	if ClassUniform.String() != "uniform" || ClassAffine.String() != "affine" ||
		ClassDivergent.String() != "divergent" {
		t.Fatalf("Class strings wrong: %s %s %s", ClassUniform, ClassAffine, ClassDivergent)
	}
}

func TestJoinVal(t *testing.T) {
	tid := absVal{kind: vExact, region: -1, ct: 1}
	cases := []struct {
		name string
		a, b absVal
		want absVal
	}{
		{"identical exact", exactConst(5), exactConst(5), exactConst(5)},
		{"different consts", exactConst(1), exactConst(2), strideVal(0)},
		{"exact vs div", exactConst(1), divVal, divVal},
		{"div vs div", divVal, divVal, divVal},
		{"tid vs tid", tid, tid, tid},
		{"tid vs shifted tid", tid, absVal{kind: vExact, region: -1, c0: 4, ct: 1}, strideVal(1)},
		{"tid vs const", tid, exactConst(3), divVal},
		{"stride vs matching exact", strideVal(2), absVal{kind: vExact, region: -1, ct: 2}, strideVal(2)},
		{"stride vs mismatched stride", strideVal(2), strideVal(3), divVal},
		{"uniform vs uniform", uniformVal, uniformVal, uniformVal},
		{"region vs same region", absVal{kind: vExact, region: 1}, absVal{kind: vExact, region: 1}, absVal{kind: vExact, region: 1}},
		{"region vs other region", absVal{kind: vExact, region: 0}, absVal{kind: vExact, region: 1}, strideVal(0)},
	}
	for _, c := range cases {
		if got := joinVal(c.a, c.b); got != c.want {
			t.Errorf("%s: joinVal = %+v, want %+v", c.name, got, c.want)
		}
		// Join is commutative.
		if got := joinVal(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): joinVal = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestTransferFunctions(t *testing.T) {
	tid := absVal{kind: vExact, region: -1, ct: 1}
	region0 := absVal{kind: vExact, region: 0}
	// Register fixture: r1=tid, r2=uniform, r3=divergent, r4=region base,
	// r5=const 6, r6=stride 2, r7=near the exact-coefficient limit.
	mk := func() regState {
		var s regState
		for r := range s {
			s[r] = divVal
		}
		s[0] = exactConst(0)
		s[1] = tid
		s[2] = uniformVal
		s[4] = region0
		s[5] = exactConst(6)
		s[6] = strideVal(2)
		s[7] = exactConst(affLimit - 1)
		return s
	}
	ins := func(op isa.Op, dst, a, b isa.Reg, imm int64) isa.Inst {
		return isa.Inst{Op: op, Dst: dst, SrcA: a, SrcB: b, Imm: imm}
	}
	cases := []struct {
		name string
		in   isa.Inst
		want absVal
	}{
		{"movi", ins(isa.MOVI, 10, 0, 0, 42), exactConst(42)},
		{"fmovi", isa.Inst{Op: isa.FMOVI, Dst: 10, FImm: 1.5}, uniformVal},
		{"mov tid", ins(isa.MOV, 10, 1, 0, 0), tid},
		{"addi tid", ins(isa.ADDI, 10, 1, 0, 5), absVal{kind: vExact, region: -1, c0: 5, ct: 1}},
		{"addi overflow demotes to stride", ins(isa.ADDI, 10, 7, 0, 2), strideVal(0)},
		{"addi region keeps region", ins(isa.ADDI, 10, 4, 0, 8), absVal{kind: vExact, region: 0, c0: 8}},
		{"muli tid", ins(isa.MULI, 10, 1, 0, 8), absVal{kind: vExact, region: -1, ct: 8}},
		{"muli region demotes to stride", ins(isa.MULI, 10, 4, 0, 2), strideVal(0)},
		{"muli overflow keeps wrapped stride", ins(isa.MULI, 10, 7, 0, 4), strideVal(0)},
		{"shli tid", ins(isa.SHLI, 10, 1, 0, 3), absVal{kind: vExact, region: -1, ct: 8}},
		{"shli mirrors machine imm&63", ins(isa.SHLI, 10, 1, 0, 65), absVal{kind: vExact, region: -1, ct: 2}},
		{"add region+tid", ins(isa.ADD, 10, 4, 1, 0), absVal{kind: vExact, region: 0, ct: 1}},
		{"add tid+region", ins(isa.ADD, 10, 1, 4, 0), absVal{kind: vExact, region: 0, ct: 1}},
		{"add region+region not exact", ins(isa.ADD, 10, 4, 4, 0), strideVal(0)},
		{"sub tid-const", ins(isa.SUB, 10, 1, 5, 0), absVal{kind: vExact, region: -1, c0: -6, ct: 1}},
		{"sub const-region not exact", ins(isa.SUB, 10, 5, 4, 0), strideVal(0)},
		{"sub div poisons", ins(isa.SUB, 10, 1, 3, 0), divVal},
		{"mul const*tid", ins(isa.MUL, 10, 5, 1, 0), absVal{kind: vExact, region: -1, ct: 6}},
		{"mul tid*const", ins(isa.MUL, 10, 1, 5, 0), absVal{kind: vExact, region: -1, ct: 6}},
		{"mul const*stride", ins(isa.MUL, 10, 5, 6, 0), strideVal(12)},
		{"mul tid*tid", ins(isa.MUL, 10, 1, 1, 0), divVal},
		{"mul uniform*uniform", ins(isa.MUL, 10, 2, 2, 0), uniformVal},
		{"ld always divergent", ins(isa.LD, 10, 4, 0, 0), divVal},
		{"slt uniform closure", ins(isa.SLT, 10, 2, 5, 0), uniformVal},
		{"slt equal strides NOT uniform", ins(isa.SLT, 10, 1, 1, 0), divVal},
		{"div uniform closure", ins(isa.DIV, 10, 5, 2, 0), uniformVal},
		{"and with divergent", ins(isa.AND, 10, 2, 3, 0), divVal},
		{"itof uniform", ins(isa.ITOF, 10, 2, 0, 0), uniformVal},
		{"write to r0 discarded", ins(isa.ADD, 0, 3, 3, 0), exactConst(0)},
		{"store writes nothing", ins(isa.ST, 0, 4, 3, 0), exactConst(0)},
	}
	for _, c := range cases {
		s := mk()
		stepDiv(c.in, &s)
		dst := c.in.Dst
		if got := s[dst]; got != c.want {
			t.Errorf("%s: r%d = %+v, want %+v", c.name, dst, got, c.want)
		}
	}
}

// TestSyncPointInjection checks Coutinho's control-dependence rule: values
// that differ per branch arm become divergent at the re-convergence point
// when (and only when) the predicate can diverge.
func TestSyncPointInjection(t *testing.T) {
	build := func(pred func(b *Builder)) *Program {
		b := NewBuilder("sync")
		pred(b) // leaves the predicate in r5
		b.Bnez(5, "then")
		b.Movi(6, 1)
		b.Jmp("join")
		b.Label("then")
		b.Movi(6, 2)
		b.Label("join")
		b.Add(7, 6, 0) // read r6 at the join
		b.Halt()
		return b.MustBuild()
	}

	divergentPred := build(func(b *Builder) { b.Mov(5, 1) }) // predicate = tid
	div := divergentPred.analyzeDivergence(divergentPred.cfg)
	joinBlk := divergentPred.cfg.blockOf[5] // pc of the join Add
	if got := div.in[joinBlk][6].class(); got != ClassDivergent {
		t.Errorf("per-arm constant under tid branch: class %s at join, want divergent", got)
	}

	uniformPred := build(func(b *Builder) { b.Movi(5, 1) }) // constant predicate
	div = uniformPred.analyzeDivergence(uniformPred.cfg)
	joinBlk = uniformPred.cfg.blockOf[5]
	if got := div.in[joinBlk][6].class(); got != ClassUniform {
		t.Errorf("per-arm constant under uniform branch: class %s at join, want uniform", got)
	}
}

// TestExactSurvivesSyncForcing: an exact tid-affine value is a pure
// function of tid, so control divergence must not demote it.
func TestExactSurvivesSyncForcing(t *testing.T) {
	b := NewBuilder("exact")
	b.Muli(6, 1, 8) // r6 = 8*tid, before the divergent branch
	b.Bnez(1, "then")
	b.Movi(7, 1)
	b.Jmp("join")
	b.Label("then")
	b.Movi(7, 2)
	b.Label("join")
	b.Add(8, 6, 7)
	b.Halt()
	p := b.MustBuild()
	div := p.analyzeDivergence(p.cfg)
	joinBlk := p.cfg.blockOf[5] // pc of the join Add
	if got := div.in[joinBlk][6]; got != (absVal{kind: vExact, region: -1, ct: 8}) {
		t.Errorf("8*tid at join = %+v, want exact ct=8", got)
	}
	if got := div.in[joinBlk][7].class(); got != ClassDivergent {
		t.Errorf("per-arm constant at join: class %s, want divergent", got)
	}
}

// loopProgram builds: header with exit branch on a counter, a body block,
// increment, back edge. prefix runs before the loop; body injects extra
// instructions inside it.
func loopProgram(prefix, body func(b *Builder)) *Program {
	b := NewBuilder("loop")
	b.DeclareRegion(4, 64)
	b.DeclareThreads(8)
	b.DeclareInputs(4)
	if prefix != nil {
		prefix(b)
	}
	b.Movi(8, 0) // counter
	b.Label("head")
	b.Slt(9, 8, 2)
	b.Beqz(9, "exit")
	if body != nil {
		body(b)
	}
	b.Addi(8, 8, 1)
	b.Jmp("head")
	b.Label("exit")
	b.Halt()
	return b.MustBuild()
}

// headBranchClass returns the class of the loop-exit branch predicate
// (the branch testing r9 in loopProgram-shaped kernels).
func headBranchClass(t *testing.T, p *Program) Class {
	t.Helper()
	for pc, in := range p.Code {
		if in.Op.IsBranch() && in.SrcA == 9 {
			bi, _ := p.Branch(pc)
			return bi.Class
		}
	}
	t.Fatal("no loop-exit branch found")
	return ClassDivergent
}

func TestLoopWidening(t *testing.T) {
	t.Run("clean loop stays uniform", func(t *testing.T) {
		if got := headBranchClass(t, loopProgram(nil, nil)); got != ClassUniform {
			t.Fatalf("untainted loop counter branch class %s, want uniform", got)
		}
	})
	t.Run("divergent load inside loop widens", func(t *testing.T) {
		p := loopProgram(nil, func(b *Builder) {
			b.Shli(10, 1, 3)
			b.Add(10, 10, 4)
			b.Ld(11, 10, 0) // per-tid address: memory divergence can split here
		})
		if got := headBranchClass(t, p); got != ClassDivergent {
			t.Fatalf("mem-divergence-tainted loop counter class %s, want divergent", got)
		}
	})
	t.Run("divergent branch before loop widens", func(t *testing.T) {
		p := loopProgram(func(b *Builder) {
			b.Bnez(1, "skip") // splits warps upstream of the loop
			b.Nop()
			b.Label("skip")
		}, nil)
		if got := headBranchClass(t, p); got != ClassDivergent {
			t.Fatalf("loop after divergent branch: counter class %s, want divergent", got)
		}
	})
	t.Run("divergence after loop does not widen", func(t *testing.T) {
		// The hazard is downstream only: splits created there never run
		// the loop again.
		b := NewBuilder("after")
		b.DeclareRegion(4, 64)
		b.DeclareThreads(8)
		b.DeclareInputs(4)
		b.Movi(8, 0)
		b.Label("head")
		b.Slt(9, 8, 2)
		b.Beqz(9, "exit")
		b.Addi(8, 8, 1)
		b.Jmp("head")
		b.Label("exit")
		b.Shli(10, 1, 3)
		b.Add(10, 10, 4)
		b.Ld(11, 10, 0)
		b.St(11, 10, 0)
		b.Halt()
		p := b.MustBuild()
		if got := headBranchClass(t, p); got != ClassUniform {
			t.Fatalf("loop with only downstream divergence: counter class %s, want uniform", got)
		}
	})
}

// TestBranchInfoWiring checks the Build-level consumers: Class recording
// and the refined Subdividable rule.
func TestBranchInfoWiring(t *testing.T) {
	// Uniform short-join branch: heuristically subdividable, analytically
	// not (it can never split a warp).
	b := NewBuilder("uni")
	b.Movi(5, 3)
	b.Bnez(5, "then")
	b.Nop()
	b.Label("then")
	b.Halt()
	p := b.MustBuild()
	bi, _ := p.Branch(1)
	if bi.Class != ClassUniform {
		t.Fatalf("constant predicate: got class %s", bi.Class)
	}
	if bi.Subdividable {
		t.Fatal("statically-uniform branch must not be subdividable")
	}

	// Affine predicate: divergence-capable, stays subdividable.
	b = NewBuilder("aff")
	b.Bnez(1, "then")
	b.Nop()
	b.Label("then")
	b.Halt()
	p = b.MustBuild()
	bi, _ = p.Branch(0)
	if bi.Class != ClassAffine {
		t.Fatalf("tid predicate: got class %s", bi.Class)
	}
	if !bi.Subdividable {
		t.Fatal("affine short-join branch should stay subdividable")
	}
}

func TestAccessClassification(t *testing.T) {
	b := NewBuilder("acc")
	b.DeclareRegion(4, 64)
	b.DeclareThreads(8)
	b.DeclareInputs(4)
	b.Ld(10, 4, 0) // uniform address (region base)
	b.Shli(11, 1, 3)
	b.Add(11, 11, 4)
	b.Ld(12, 11, 0) // affine address (base + 8*tid)
	b.St(12, 12, 0) // divergent address (loaded value)
	b.Halt()
	p := b.MustBuild()
	got := p.MemAccesses()
	want := []struct {
		pc    int
		store bool
		class Class
	}{
		{0, false, ClassUniform},
		{3, false, ClassAffine},
		{4, true, ClassDivergent},
	}
	if len(got) != len(want) {
		t.Fatalf("MemAccesses = %+v, want %+v", got, want)
	}
	for i, w := range want {
		if g := got[i]; g.PC != w.pc || g.Store != w.store || g.Class != w.class {
			t.Errorf("access %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestDivergenceReportShape(t *testing.T) {
	p := loopProgram(nil, func(b *Builder) {
		b.Shli(10, 1, 3)
		b.Add(10, 10, 4)
		b.Ld(11, 10, 0)
	})
	rep := p.DivergenceReport()
	for _, want := range []string{"kernel loop:", "branch @pc", "ld     @pc", "divergent"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// The verifier's barrier check takes predicate uniformity from this
// analysis, not from a register taint of its own. The cases are the shapes
// where a plain "derived from tid or a load" taint would answer differently:
// an undeclared input may hold a different value in every thread (the ABI
// promises nothing about it), a loop counter can run desynchronised once an
// upstream access has split the warp, and tid − tid is the same in every
// lane.
func TestBarrierCheckFollowsDivergenceVerdict(t *testing.T) {
	cases := []struct {
		name    string
		emit    func(b *Builder)
		flagged bool
	}{
		{"undeclared input predicate", func(b *Builder) {
			b.Beqz(4, "skip")
			b.Barrier()
			b.Label("skip")
			b.Halt()
		}, true},
		{"declared uniform input predicate", func(b *Builder) {
			b.DeclareUniformInputs(4)
			b.Beqz(4, "skip")
			b.Barrier()
			b.Label("skip")
			b.Halt()
		}, false},
		{"trip-desynchronised loop counter", func(b *Builder) {
			b.DeclareUniformInputs(4)
			b.Movi(5, 0)
			b.Label("loop")
			b.Ld(6, 1, 0) // tid-indexed: lanes can miss apart and split
			b.Addi(5, 5, 1)
			b.Slt(7, 5, 4)
			b.Beqz(7, "done")
			b.Barrier()
			b.Jmp("loop")
			b.Label("done")
			b.Halt()
		}, true},
		{"tid cancels out of the predicate", func(b *Builder) {
			b.Sub(4, 1, 1)
			b.Beqz(4, "skip")
			b.Barrier()
			b.Label("skip")
			b.Halt()
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("barrier-verdict")
			tc.emit(b)
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			got := len(findingsWith(p.Verify(), "barrier-divergence")) > 0
			if got != tc.flagged {
				t.Fatalf("barrier flagged = %v, want %v\n%s", got, tc.flagged, p.Disassemble())
			}
		})
	}
}
