package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// buildAccessKernel assembles a straight-line kernel with one load per
// access pattern of interest: region-uniform, tid·8 (coalesced), tid·16
// (strided), and data-dependent (gather).
func buildAccessKernel(t testing.TB) *Program {
	b := NewBuilder("access-classes")
	b.DeclareRegion(4, 4096)
	b.DeclareThreads(64)
	b.Ld(10, 4, 0) // uniform: every lane reads the region base
	b.Shli(5, 1, 3)
	b.Add(5, 5, 4)
	b.Ld(11, 5, 0) // coalesced: base + 8·tid
	b.Shli(6, 1, 4)
	b.Add(6, 6, 4)
	b.Ld(12, 6, 0) // strided(16): base + 16·tid
	b.Andi(7, 3, 1023)
	b.Shli(7, 7, 3)
	b.Add(7, 7, 4)
	b.Ld(13, 7, 0) // gather: r3 is per-thread, statically opaque
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAccessClasses pins the classifier end to end under DefaultMemParams
// (16 lanes, 128 B lines, 16 banks): classes, strides, worst-case
// transaction and bank-conflict bounds, and footprints.
func TestAccessClasses(t *testing.T) {
	p := buildAccessKernel(t)
	got := p.MemAccesses()
	want := []MemAccessInfo{
		// 8 B at a warp-uniform address: one line, one bank.
		{PC: 0, Store: false, Class: ClassUniform, AClass: AccessUniform, StrideBytes: 0, Transactions: 1, BankConflict: 1, FootprintBytes: 8},
		// 8·tid: 16 lanes span 128 B — one line when aligned, two when the
		// base straddles; adjacent lines land on distinct banks.
		{PC: 3, Store: false, Class: ClassAffine, AClass: AccessCoalesced, StrideBytes: 8, Transactions: 2, BankConflict: 1, FootprintBytes: 128},
		// 16·tid spans 248 B: up to three lines, beyond the coalesced bar.
		{PC: 6, Store: false, Class: ClassAffine, AClass: AccessStrided, StrideBytes: 16, Transactions: 3, BankConflict: 1, FootprintBytes: 248},
		// Opaque per-thread address: every lane may touch its own line.
		{PC: 10, Store: false, Class: ClassDivergent, AClass: AccessGather, StrideBytes: 0, Transactions: 16, BankConflict: 16, FootprintBytes: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d\n%s", len(got), len(want), p.MemAccessReport())
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("access %d:\n got  %+v\n want %+v", i, got[i], w)
		}
	}
}

// TestMemAccessFor pins the geometry-dependent recomputation the WPU uses
// at Launch: narrower machines, smaller lines, and an interleaved lane
// tid step must all rescale the bounds.
func TestMemAccessFor(t *testing.T) {
	p := buildAccessKernel(t)
	cases := []struct {
		name   string
		params MemParams
		pc     int
		tx     int
		bank   int
	}{
		// 8·tid over 6 lanes of 32 B lines: 40 B span, up to 3 lines, and
		// with only 4 banks all three stay distinct.
		{"narrow", MemParams{Lanes: 6, LineBytes: 32, Banks: 4}, 3, 3, 1},
		// Interleaved distribution (tid step 4): the effective stride is
		// 32 B, 16 lanes span 480 B — five 128 B lines worst case.
		{"interleave", MemParams{Lanes: 16, LineBytes: 128, Banks: 16, TidStep: 4}, 3, 5, 1},
		// One lane: everything is a single transaction.
		{"scalar", MemParams{Lanes: 1, LineBytes: 128, Banks: 16}, 10, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, a := range p.MemAccessFor(tc.params) {
				if a.PC != tc.pc {
					continue
				}
				if a.Transactions != tc.tx || a.BankConflict != tc.bank {
					t.Errorf("pc %d under %+v: tx=%d bank=%d, want tx=%d bank=%d",
						tc.pc, tc.params, a.Transactions, a.BankConflict, tc.tx, tc.bank)
				}
				return
			}
			t.Fatalf("pc %d not in MemAccessFor result", tc.pc)
		})
	}
}

// TestWorstAffineBankConflict pins the alignment-enumeration fix for the
// bank-conflict bound: stride 2056 on a 128 B-line, 16-bank machine maps
// multiple distinct lines onto the same bank (2056 = 16·128 + 8, so
// successive lanes advance 16 lines plus a slow 8-byte creep — line
// indices collide mod 16 as the creep wraps). A closed-form per-lane bound
// misses this; the enumeration must not.
func TestWorstAffineBankConflict(t *testing.T) {
	b := NewBuilder("bank-conflict")
	b.DeclareRegion(4, 1<<20)
	b.DeclareThreads(16)
	b.Muli(5, 1, 2056)
	b.Add(5, 5, 4)
	b.Ld(10, 5, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := p.MemAccesses()[0]
	if a.AClass != AccessGather && a.BankConflict < 2 {
		t.Errorf("stride-2056 access reports bank conflict %d; distinct lines collide on a bank", a.BankConflict)
	}
	if a.Transactions != 16 {
		t.Errorf("stride-2056 access bounds %d transactions, want 16 (every lane its own line)", a.Transactions)
	}
}

// TestMemClassFoldIn verifies the decoded-stream fold-in: every memory
// op's 2-bit MemClass mirrors the table.
func TestMemClassFoldIn(t *testing.T) {
	p := buildAccessKernel(t)
	dec := p.Decoded()
	for _, a := range p.MemAccesses() {
		d := dec[a.PC]
		if got := AccessClass(d.MemClass()); got != a.AClass {
			t.Errorf("pc %d: decoded class %s, table %s", a.PC, got, a.AClass)
		}
	}
}

// The disassembly must annotate memory ops with their class and bound.
func TestDisassembleMemAnnotations(t *testing.T) {
	dis := buildAccessKernel(t).Disassemble()
	for _, want := range []string{"; uniform tx<=1", "; coalesced tx<=2", "; strided tx<=3", "; gather tx<=16"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// benchKernel builds a representative ~60-instruction kernel (grid-stride
// loop, branch diamond, prologue and in-loop memory traffic) from scratch:
// the full Build pipeline — CFG, dominators, divergence dataflow, memory
// classification, verification, decode — is the unit under test.
func buildBenchKernel(tb testing.TB) {
	b := NewBuilder("build-bench")
	b.DeclareRegion(4, 4096)
	b.DeclareRegion(5, 4096)
	b.DeclareUniformInputs(6, 7)
	b.DeclareThreads(1024)
	b.Shli(20, 1, 3)
	b.Add(20, 20, 4)
	b.Ld(21, 20, 0) // prologue: coalesced A[tid]
	b.Ld(22, 5, 0)  // prologue: uniform B[0]
	b.Mov(9, 1)
	b.Label("loop")
	b.Slt(10, 9, 6)
	b.Beqz(10, "done")
	for i := 0; i < 4; i++ {
		r := isa.Reg(11 + 4*i)
		b.Shli(r, 9, 3)
		b.Add(r, r, 4)
		b.Ld(r+1, r, 0)
		b.Fmul(r+2, r+1, 21)
		b.Fadd(r+3, r+2, 22)
	}
	b.Slt(28, 9, 7)
	b.Beqz(28, "skip")
	b.Fadd(14, 14, 18)
	b.Fsub(14, 14, 26)
	b.Jmp("join")
	b.Label("skip")
	b.Fmul(14, 14, 22)
	b.Label("join")
	b.Shli(29, 9, 3)
	b.Add(29, 29, 5)
	b.St(14, 29, 0)
	b.Add(9, 9, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Barrier()
	b.Halt()
	p, err := b.buildFresh() // past the memo: the analyses are what is measured
	if err != nil {
		tb.Fatal(err)
	}
	if len(p.MemAccesses()) == 0 {
		tb.Fatal("kernel lost its memory accesses")
	}
}

// BenchmarkProgramBuild times the build of one kernel: the static analyses
// added over time — divergence dataflow, memory-access classification,
// verification — all run inside Build's first encounter with a kernel.
func BenchmarkProgramBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildBenchKernel(b)
	}
}

// TestProgramBuildAllocs holds BenchmarkProgramBuild's op to at most 10 %
// over the allocation count written here: an analysis added to Build shows
// here first.
func TestProgramBuildAllocs(t *testing.T) {
	const pin = 402
	allocs := testing.AllocsPerRun(20, func() { buildBenchKernel(t) })
	t.Logf("ProgramBuild: %.0f allocs/op", allocs)
	if allocs > 1.1*pin {
		t.Errorf("ProgramBuild: %.0f allocs/op, pinned at %d (+10 %% allowed)", allocs, pin)
	}
}
