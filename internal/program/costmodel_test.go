package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// countedLoop builds `for i = init; i < bound; i += step { body }` with the
// bound in r4 and the induction in r5; build customises the prologue.
func mustBuildProg(t *testing.T, b *Builder) *Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func singleLoop(t *testing.T, m *CostModel) LoopCost {
	t.Helper()
	if len(m.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d: %+v", len(m.Loops), m.Loops)
	}
	return m.Loops[0]
}

func TestCostIntervalBasics(t *testing.T) {
	iv := CostInterval{3, 7}
	if !iv.Contains(3) || !iv.Contains(7) || iv.Contains(2) || iv.Contains(8) {
		t.Errorf("Contains wrong on %v", iv)
	}
	if iv.Unbounded() {
		t.Errorf("finite interval reported unbounded")
	}
	if got := iv.String(); got != "[3,7]" {
		t.Errorf("String = %q", got)
	}
	top := CostInterval{0, CostInf}
	if !top.Unbounded() || !top.Contains(1<<40) {
		t.Errorf("unbounded interval misbehaves")
	}
	if got := top.String(); got != "[0,inf]" {
		t.Errorf("String = %q", got)
	}
}

// A loop with constant init, bound, and step has an exact trip count.
func TestTripCountConstantBound(t *testing.T) {
	b := NewBuilder("trips-const")
	b.DeclareThreads(16)
	b.Movi(4, 10)
	b.Movi(5, 0)
	b.Movi(7, 0)
	b.Label("loop")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.Addi(7, 7, 3)
	b.Addi(5, 5, 1)
	b.Jmp("loop")
	b.Label("done")
	b.St(7, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "" {
		t.Fatalf("loop not recognised: %q", lc.Note)
	}
	if lc.Induction != 5 {
		t.Errorf("induction = r%d, want r5", lc.Induction)
	}
	if lc.Trips != (CostInterval{10, 10}) {
		t.Errorf("trips = %s, want [10,10]", lc.Trips)
	}
}

// A declared uniform-range bound yields interval trips.
func TestTripCountUniformRangeBound(t *testing.T) {
	b := NewBuilder("trips-range")
	b.DeclareThreads(16)
	b.DeclareUniformRange(4, 5, 20)
	b.Movi(5, 0)
	b.Movi(7, 0)
	b.Label("loop")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.Addi(7, 7, 1)
	b.Addi(5, 5, 1)
	b.Jmp("loop")
	b.Label("done")
	b.St(7, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "" {
		t.Fatalf("loop not recognised: %q", lc.Note)
	}
	if lc.Trips != (CostInterval{5, 20}) {
		t.Errorf("trips = %s, want [5,20]", lc.Trips)
	}
}

// The grid-stride idiom: i starts at tid, strides by the thread count.
// With 16 threads and a fixed bound of 32 every thread runs exactly twice.
func TestTripCountGridStride(t *testing.T) {
	b := NewBuilder("trips-stride")
	b.DeclareThreads(16)
	b.DeclareUniformRange(4, 32, 32)
	b.Mov(5, 1)
	b.Label("loop")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.St(5, 1, 0)
	b.Add(5, 5, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "" {
		t.Fatalf("loop not recognised: %q", lc.Note)
	}
	if lc.Trips != (CostInterval{2, 2}) {
		t.Errorf("trips = %s, want [2,2]", lc.Trips)
	}
}

// Counting down: `for i = 10; i > 0; i--` (continue while 0 < i).
func TestTripCountDecrement(t *testing.T) {
	b := NewBuilder("trips-down")
	b.DeclareThreads(16)
	b.Movi(5, 10)
	b.Movi(7, 0)
	b.Label("loop")
	b.Slt(6, 0, 5)
	b.Beqz(6, "done")
	b.Addi(7, 7, 1)
	b.Addi(5, 5, -1)
	b.Jmp("loop")
	b.Label("done")
	b.St(7, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "" {
		t.Fatalf("loop not recognised: %q", lc.Note)
	}
	if lc.Trips != (CostInterval{10, 10}) {
		t.Errorf("trips = %s, want [10,10]", lc.Trips)
	}
}

// An inclusive test (`i <= bound` via SLE) shifts the bound by one.
func TestTripCountInclusiveBound(t *testing.T) {
	b := NewBuilder("trips-sle")
	b.DeclareThreads(16)
	b.Movi(4, 10)
	b.Movi(5, 0)
	b.Movi(7, 0)
	b.Label("loop")
	b.Sle(6, 5, 4)
	b.Beqz(6, "done")
	b.Addi(7, 7, 1)
	b.Addi(5, 5, 1)
	b.Jmp("loop")
	b.Label("done")
	b.St(7, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Trips != (CostInterval{11, 11}) {
		t.Errorf("trips = %s, want [11,11]", lc.Trips)
	}
}

// A bound redefined inside the loop defeats the analysis with a note, and
// the trip bound stays the sound [0, inf].
func TestTripCountMutatedBound(t *testing.T) {
	b := NewBuilder("trips-mut")
	b.DeclareThreads(16)
	b.Movi(4, 10)
	b.Movi(5, 0)
	b.Label("loop")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.Muli(4, 4, 1)
	b.Addi(5, 5, 1)
	b.Jmp("loop")
	b.Label("done")
	b.St(5, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "loop bound is modified inside the loop" {
		t.Errorf("note = %q", lc.Note)
	}
	if lc.Trips != (CostInterval{0, CostInf}) {
		t.Errorf("trips = %s, want [0,inf]", lc.Trips)
	}
}

// A predicate that is not a signed compare is rejected with a note.
func TestTripCountNonComparePredicate(t *testing.T) {
	b := NewBuilder("trips-andpred")
	b.DeclareThreads(16)
	b.Movi(5, 8)
	b.Label("loop")
	b.Andi(6, 5, 0xff)
	b.Beqz(6, "done")
	b.Addi(5, 5, -1)
	b.Jmp("loop")
	b.Label("done")
	b.St(5, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	lc := singleLoop(t, p.CostModel())
	if lc.Note != "loop predicate is not a signed compare" {
		t.Errorf("note = %q", lc.Note)
	}
	if !lc.Trips.Unbounded() {
		t.Errorf("trips = %s, want unbounded", lc.Trips)
	}
}

// Nested constant loops multiply into the inner block's execution bound.
func TestBlockExecsNestedLoops(t *testing.T) {
	b := NewBuilder("nest")
	b.DeclareThreads(16)
	b.Movi(4, 4) // outer bound
	b.Movi(8, 3) // inner bound
	b.Movi(5, 0)
	b.Movi(10, 0)
	b.Label("outer")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.Movi(7, 0)
	b.Label("inner")
	b.Slt(9, 7, 8)
	b.Beqz(9, "next")
	b.Addi(10, 10, 1)
	b.Addi(7, 7, 1)
	b.Jmp("inner")
	b.Label("next")
	b.Addi(5, 5, 1)
	b.Jmp("outer")
	b.Label("done")
	b.St(10, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	m := p.CostModel()
	if len(m.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d: %+v", len(m.Loops), m.Loops)
	}
	for _, lc := range m.Loops {
		if lc.Note != "" {
			t.Fatalf("loop at B%d not recognised: %q", lc.Header, lc.Note)
		}
	}
	// The inner body block runs exactly 4*3 = 12 times per thread.
	inner := -1
	for pc, in := range p.Code {
		if in.Op == isa.ADDI && in.Dst == 10 {
			inner = p.cfg.blockOf[pc]
			break
		}
	}
	if inner < 0 {
		t.Fatal("inner body block not found")
	}
	var got CostInterval
	for _, bc := range m.Blocks {
		if bc.ID == inner {
			got = bc.Execs
		}
	}
	if got != (CostInterval{12, 12}) {
		t.Errorf("inner body execs = %s, want [12,12]", got)
	}
}

// Straight-line programs have exact block bounds.
func TestCostModelStraightLine(t *testing.T) {
	b := NewBuilder("straight")
	b.DeclareThreads(16)
	b.Movi(5, 7)
	b.Addi(5, 5, 1)
	b.St(5, 1, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	m := p.CostModel()
	if len(m.Loops) != 0 {
		t.Fatalf("unexpected loops: %+v", m.Loops)
	}
	for _, bc := range m.Blocks {
		if bc.Execs != (CostInterval{1, 1}) {
			t.Errorf("block B%d execs = %s, want [1,1]", bc.ID, bc.Execs)
		}
	}
}

// CostModel is CostModelFor at its own (default) parameters, and the
// declared range is kept.
func TestCostModelRecordedAtBuild(t *testing.T) {
	b := NewBuilder("recorded")
	b.DeclareThreads(16)
	b.DeclareUniformRange(4, 1, 64)
	b.Mov(5, 1)
	b.Label("loop")
	b.Slt(6, 5, 4)
	b.Beqz(6, "done")
	b.St(5, 1, 0)
	b.Add(5, 5, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	p := mustBuildProg(t, b)
	m := p.CostModel()
	if m == nil {
		t.Fatal("no cost model")
	}
	fresh := p.CostModelFor(m.Params)
	if got, want := m.Report(p.Name), fresh.Report(p.Name); got != want {
		t.Errorf("default model drifted:\n%s\nvs CostModelFor its params:\n%s", got, want)
	}
	if got := p.UniformRanges(); len(got) != 1 || got[0] != (UniformRange{4, 1, 64}) {
		t.Errorf("UniformRanges = %+v", got)
	}
}

// Disassembly carries the cost annotation.
func TestDisassembleCostAnnotations(t *testing.T) {
	b := NewBuilder("disasm-cost")
	b.DeclareThreads(16)
	b.DeclareRegion(4, 1024)
	b.Muli(5, 1, 8)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Addi(6, 6, 1)
	b.St(6, 5, 0)
	b.Halt()
	p := mustBuildProg(t, b)
	d := p.Disassemble()
	if !strings.Contains(d, "execs=[1,1]") {
		t.Errorf("disassembly missing execs annotation:\n%s", d)
	}
}
