package program

import (
	"testing"

	"repro/internal/isa"
)

// buildDecodedFixture is a loop with a nested diamond: it has a uniform
// branch (loop trip count in a broadcast register), a divergent subdividable
// branch, memory ops, and a jump — every decoded-stream field gets exercised.
func buildDecodedFixture(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("decoded-fixture")
	b.DeclareInputs(1, 2, 3)
	b.DeclareRegion(3, 64)
	b.Movi(4, 0)
	b.Label("head")
	b.Slt(5, 4, 2)
	b.Beqz(5, "exit")
	b.Shli(6, 4, 3)
	b.Add(6, 6, 3)
	b.Ld(7, 6, 0)
	b.Andi(8, 7, 1)
	b.Bnez(8, "odd")
	b.Addi(7, 7, 10)
	b.Jmp("join")
	b.Label("odd")
	b.Addi(7, 7, 3)
	b.Label("join")
	b.St(7, 6, 0)
	b.Addi(4, 4, 1)
	b.Jmp("head")
	b.Label("exit")
	b.Halt()
	return b.MustBuild()
}

// TestDecodedStreamMatchesTables: the stream the WPU dispatches from must
// agree, entry by entry, with the architectural code and the verified
// per-branch tables it replaced on the hot path.
func TestDecodedStreamMatchesTables(t *testing.T) {
	p := buildDecodedFixture(t)
	code := p.Code
	ds := p.Decoded()
	if len(ds) != len(code) {
		t.Fatalf("stream length %d, want %d", len(ds), len(code))
	}
	for pc := range code {
		d := &ds[pc]
		if got := d.Reassemble(); got != code[pc] {
			t.Errorf("pc %d: decoded %+v does not round-trip to %+v", pc, got, code[pc])
		}
		if !code[pc].Op.IsBranch() {
			continue
		}
		bi, ok := p.Branch(pc)
		if !ok {
			t.Fatalf("pc %d: branch missing from table", pc)
		}
		if got, want := d.Flags&isa.DFUniform != 0, bi.Class == ClassUniform; got != want {
			t.Errorf("pc %d: DFUniform = %v, want %v (class %s)", pc, got, want, bi.Class)
		}
		if got, want := d.Flags&isa.DFSubdiv != 0, bi.Subdividable; got != want {
			t.Errorf("pc %d: DFSubdiv = %v, want %v", pc, got, want)
		}
		wantReconv, ok := p.ReconvPC(pc)
		if !ok {
			wantReconv = NoIPdom
		}
		gotReconv := int(d.Reconv)
		if gotReconv < 0 {
			gotReconv = NoIPdom
		}
		if gotReconv != wantReconv {
			t.Errorf("pc %d: Reconv = %d, want %d", pc, gotReconv, wantReconv)
		}
	}
}

// TestDecodedDisassemblyUnchanged: the disassembler consumes the Inst form;
// reconstructing it from the decoded stream must yield the same text, so a
// program whose stream drifted from its code cannot disassemble cleanly.
func TestDecodedDisassemblyUnchanged(t *testing.T) {
	p := buildDecodedFixture(t)
	for pc, d := range p.Decoded() {
		if got, want := d.Reassemble().String(), p.Code[pc].String(); got != want {
			t.Errorf("pc %d: %q != %q", pc, got, want)
		}
	}
}
