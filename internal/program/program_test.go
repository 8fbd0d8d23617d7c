package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// ifElseKernel builds:
//
//	  bnez r1, then
//	  addi r4, r0, 1   (else arm)
//	  jmp join
//	then:
//	  addi r4, r0, 2
//	join:
//	  add r5, r4, r4
//	  halt
func ifElseKernel(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("ifelse")
	b.Bnez(1, "then")
	b.Addi(4, 0, 1)
	b.Jmp("join")
	b.Label("then")
	b.Addi(4, 0, 2)
	b.Label("join")
	b.Add(5, 4, 4)
	b.Halt()
	return b.MustBuild()
}

func TestIfElseIPdom(t *testing.T) {
	p := ifElseKernel(t)
	bi, ok := p.Branch(0)
	if !ok {
		t.Fatal("branch at pc 0 not found")
	}
	if bi.IPdom != 4 {
		t.Fatalf("ipdom = %d, want 4 (the join block)", bi.IPdom)
	}
	if !bi.Subdividable {
		t.Fatal("short join block should be subdividable")
	}
}

func TestLoopIPdom(t *testing.T) {
	// loop: addi r4, r4, 1; slt r5, r4, r2; bnez r5, loop; halt
	b := NewBuilder("loop")
	b.Label("loop")
	b.Addi(4, 4, 1)
	b.Slt(5, 4, 2)
	b.Bnez(5, "loop")
	b.Halt()
	p := b.MustBuild()
	bi, ok := p.Branch(2)
	if !ok {
		t.Fatal("loop branch not found")
	}
	// The loop back-edge's post-dominator is the exit path (the halt block).
	if bi.IPdom != 3 {
		t.Fatalf("loop branch ipdom = %d, want 3", bi.IPdom)
	}
}

func TestBranchToHaltHasNoIPdom(t *testing.T) {
	// bnez r1, die; addi r4,r0,1; halt; die: halt
	b := NewBuilder("die")
	b.Bnez(1, "die")
	b.Addi(4, 0, 1)
	b.Halt()
	b.Label("die")
	b.Halt()
	p := b.MustBuild()
	bi, ok := p.Branch(0)
	if !ok {
		t.Fatal("branch not found")
	}
	if bi.IPdom != NoIPdom {
		t.Fatalf("ipdom = %d, want NoIPdom", bi.IPdom)
	}
	if bi.Subdividable {
		t.Fatal("branch with no ipdom must not be subdividable")
	}
}

func TestNestedBranches(t *testing.T) {
	//	  bnez r1, outerThen
	//	  nop
	//	  jmp outerJoin
	//	outerThen:
	//	  bnez r2, innerThen
	//	  nop
	//	  jmp innerJoin
	//	innerThen:
	//	  nop
	//	innerJoin:
	//	  nop
	//	outerJoin:
	//	  halt
	b := NewBuilder("nested")
	b.Bnez(1, "outerThen") // pc 0
	b.Nop()
	b.Jmp("outerJoin")
	b.Label("outerThen")
	b.Bnez(2, "innerThen") // pc 3
	b.Nop()
	b.Jmp("innerJoin")
	b.Label("innerThen")
	b.Nop() // pc 6
	b.Label("innerJoin")
	b.Nop() // pc 7
	b.Label("outerJoin")
	b.Halt() // pc 8
	p := b.MustBuild()

	outer, _ := p.Branch(0)
	if outer.IPdom != 8 {
		t.Fatalf("outer ipdom = %d, want 8", outer.IPdom)
	}
	inner, _ := p.Branch(3)
	if inner.IPdom != 7 {
		t.Fatalf("inner ipdom = %d, want 7", inner.IPdom)
	}
}

func TestShortBlockHeuristic(t *testing.T) {
	build := func(padding int) *Program {
		b := NewBuilder("pad")
		b.Bnez(1, "then")
		b.Nop()
		b.Jmp("join")
		b.Label("then")
		b.Nop()
		b.Label("join")
		for i := 0; i < padding; i++ {
			b.Nop()
		}
		b.Halt()
		return b.MustBuild()
	}
	// Join block has padding+1 instructions (pads + halt).
	p := build(ShortBlockLimit - 1) // exactly at the limit
	if bi, _ := p.Branch(0); !bi.Subdividable {
		t.Fatal("block at limit should be subdividable")
	}
	p = build(ShortBlockLimit) // one over
	if bi, _ := p.Branch(0); bi.Subdividable {
		t.Fatal("block over limit should not be subdividable")
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder("e").Build(); err == nil {
			t.Fatal("empty program built")
		}
	})
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder("u")
		b.Jmp("nowhere")
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Fatal("undefined label not rejected")
		}
	})
	t.Run("fall off end", func(t *testing.T) {
		b := NewBuilder("f")
		b.Nop()
		if _, err := b.Build(); err == nil {
			t.Fatal("fall-off-end not rejected")
		}
	})
	t.Run("duplicate label panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate label did not panic")
			}
		}()
		b := NewBuilder("d")
		b.Label("x")
		b.Label("x")
	})
}

func TestCFGBlockPartition(t *testing.T) {
	p := ifElseKernel(t)
	// Expect blocks: [0,1) branch; [1,3) else+jmp; [3,4) then; [4,6) join.
	if len(p.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4: %+v", len(p.Blocks), p.Blocks)
	}
	// Every instruction belongs to exactly one block, in order.
	pc := 0
	for _, blk := range p.Blocks {
		if blk.Start != pc {
			t.Fatalf("block %d starts at %d, want %d", blk.ID, blk.Start, pc)
		}
		pc = blk.End
	}
	if pc != len(p.Code) {
		t.Fatalf("blocks cover %d instructions, want %d", pc, len(p.Code))
	}
}

func TestCFGSuccessors(t *testing.T) {
	p := ifElseKernel(t)
	// Block 0 (branch) -> blocks 1 (fallthrough) and 2 (taken).
	if got := p.Blocks[0].Succ; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("block 0 succ = %v, want [1 2]", got)
	}
	// Block 1 (jmp join) -> block 3.
	if got := p.Blocks[1].Succ; len(got) != 1 || got[0] != 3 {
		t.Fatalf("block 1 succ = %v, want [3]", got)
	}
	// Block 3 (halt) -> none.
	if got := p.Blocks[3].Succ; len(got) != 0 {
		t.Fatalf("halt block succ = %v, want none", got)
	}
}

func TestDisassembleMentionsMetadata(t *testing.T) {
	p := ifElseKernel(t)
	d := p.Disassemble()
	if !strings.Contains(d, "ipdom=@4") {
		t.Fatalf("disassembly missing ipdom annotation:\n%s", d)
	}
	if !strings.Contains(d, "subdividable") {
		t.Fatalf("disassembly missing subdividable annotation:\n%s", d)
	}
	if !strings.Contains(d, "B0:") {
		t.Fatalf("disassembly missing block labels:\n%s", d)
	}
}

func TestBranchTargetSameBlockAsFallthrough(t *testing.T) {
	// A branch whose target equals the fallthrough must not duplicate the
	// successor edge.
	b := NewBuilder("self")
	b.Bnez(1, "next")
	b.Label("next")
	b.Halt()
	p := b.MustBuild()
	if got := p.Blocks[0].Succ; len(got) != 1 {
		t.Fatalf("succ = %v, want single edge", got)
	}
	bi, _ := p.Branch(0)
	if bi.IPdom != 1 {
		t.Fatalf("ipdom = %d, want 1", bi.IPdom)
	}
}

func TestNumBranches(t *testing.T) {
	p := ifElseKernel(t)
	if p.NumBranches() != 1 {
		t.Fatalf("NumBranches = %d, want 1", p.NumBranches())
	}
}

func TestWhileLoopWithBody(t *testing.T) {
	// i = 0; while (i < n) { body; i++ } ; halt
	// check: the exit branch's ipdom is the halt block.
	b := NewBuilder("while")
	b.Movi(4, 0) // i = 0
	b.Label("head")
	b.Slt(5, 4, 2)
	b.Beqz(5, "exit") // pc 2
	b.Nop()           // body
	b.Addi(4, 4, 1)
	b.Jmp("head")
	b.Label("exit")
	b.Halt() // pc 6
	p := b.MustBuild()
	bi, _ := p.Branch(2)
	if bi.IPdom != 6 {
		t.Fatalf("while-exit branch ipdom = %d, want 6", bi.IPdom)
	}
}

func TestDataDependentBranchInsideLoop(t *testing.T) {
	// The canonical DWS shape: a divergent if inside a loop. The if's ipdom
	// must be inside the loop (the join before the increment).
	b := NewBuilder("divloop")
	b.Movi(4, 0)
	b.Label("head")
	b.Slt(5, 4, 2)
	b.Beqz(5, "exit") // pc 2: loop exit
	b.And(6, 4, 1)    // parity of iteration count + tid: genuinely divergent
	b.Bnez(6, "odd")  // pc 4: divergent if
	b.Addi(7, 7, 1)
	b.Jmp("join")
	b.Label("odd")
	b.Addi(7, 7, 2) // pc 7
	b.Label("join")
	b.Addi(4, 4, 1) // pc 8
	b.Jmp("head")
	b.Label("exit")
	b.Halt()
	p := b.MustBuild()
	bi, _ := p.Branch(4)
	if bi.IPdom != 8 {
		t.Fatalf("inner if ipdom = %d, want 8 (loop join)", bi.IPdom)
	}
	if !bi.Subdividable {
		t.Fatal("inner if with short join should be subdividable")
	}
}

func TestEmitRawAndLen(t *testing.T) {
	b := NewBuilder("raw")
	b.Emit(isa.Inst{Op: isa.NOP})
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	b.Halt()
	p := b.MustBuild()
	if len(p.Code) != 2 {
		t.Fatalf("code len = %d, want 2", len(p.Code))
	}
}

func TestInvalidBranchTargetRejected(t *testing.T) {
	b := NewBuilder("bad")
	b.Emit(isa.Inst{Op: isa.JMP, Target: 99})
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range target not rejected")
	}
}

// TestUniformRangeRejected: a declared uniform range the launch cannot
// honour — on r0, on a register the machine does not have, or empty — fails
// Build naming the register, instead of building and failing (or meaning
// nothing) at every launch. A valid range still builds.
func TestUniformRangeRejected(t *testing.T) {
	kernel := func(reg isa.Reg, lo, hi int64) *Builder {
		b := NewBuilder("urange")
		b.DeclareThreads(16)
		b.DeclareUniformRange(reg, lo, hi)
		b.Halt()
		return b
	}
	for _, c := range []struct {
		name   string
		b      *Builder
		reason string
	}{
		{"r0", kernel(0, 1, 8), "uniform range on r0 invalid"},
		{"out of the register file", kernel(isa.NumRegs+8, 1, 8), "uniform range on r40 invalid"},
		{"lo > hi", kernel(5, 10, 1), "uniform range at r5 is empty [10,1]"},
	} {
		_, err := c.b.Build()
		if err == nil {
			t.Errorf("%s: Build accepted the range", c.name)
		} else if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.reason)
		}
	}
	if _, err := kernel(5, 1, 1).Build(); err != nil {
		t.Errorf("one-value range on r5: %v", err)
	}
}

// memoKernel is a small kernel whose every Builder input a test can vary.
func memoKernel(name string, imm int64, threads int) *Builder {
	b := NewBuilder(name)
	b.DeclareRegion(4, 64)
	b.DeclareUniformRange(5, 1, 8)
	b.DeclareThreads(threads)
	b.Shli(6, 1, 3)
	b.Add(6, 6, 4)
	b.Ld(7, 6, 0)
	b.Label("loop")
	b.Addi(7, 7, imm)
	b.Addi(5, 5, -1)
	b.Bnez(5, "loop")
	b.St(7, 6, 0)
	b.Halt()
	return b
}

// TestBuildMemoized: two Builders holding the same kernel get the same
// *Program (so a WPU gives the kernel one fetch range however often a
// workload is instantiated), while a difference in anything Build reads —
// name, code, a declaration — gives another.
func TestBuildMemoized(t *testing.T) {
	base := memoKernel("memo", 3, 8).MustBuild()
	if again := memoKernel("memo", 3, 8).MustBuild(); again != base {
		t.Fatal("identical kernels built twice are two programs")
	}
	for what, b := range map[string]*Builder{
		"name":    memoKernel("memo2", 3, 8),
		"code":    memoKernel("memo", 4, 8),
		"threads": memoKernel("memo", 3, 6),
	} {
		if b.MustBuild() == base {
			t.Fatalf("kernels differing in %s share a program", what)
		}
	}
	extra := memoKernel("memo", 3, 8)
	extra.DeclareUniformInputs(9)
	if extra.MustBuild() == base {
		t.Fatal("kernels differing in declared inputs share a program")
	}

	// Concurrent first builds of one kernel settle on one program.
	const n = 8
	got := make(chan *Program, n)
	for i := 0; i < n; i++ {
		go func() { got <- memoKernel("memo-concurrent", 3, 8).MustBuild() }()
	}
	first := <-got
	for i := 1; i < n; i++ {
		if p := <-got; p != first {
			t.Fatal("concurrent builds of one kernel returned different programs")
		}
	}
}

// TestBuildMemoBounded: a generator of distinct kernels cannot grow the memo
// past its bound.
func TestBuildMemoBounded(t *testing.T) {
	for i := 0; i < maxBuilds+10; i++ {
		memoKernel("memo-many", int64(i+100), 8).MustBuild()
	}
	builds.mu.Lock()
	n := len(builds.byDigest)
	builds.mu.Unlock()
	if n > maxBuilds {
		t.Fatalf("memo holds %d programs, bound is %d", n, maxBuilds)
	}
}
