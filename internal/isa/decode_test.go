package isa

import (
	"math"
	"math/rand"
	"testing"
)

// allOps enumerates every opcode once, with operand fields populated the way
// the program builder would populate them.
func allOps() []Inst {
	var ins []Inst
	for op := Op(0); op < opCount; op++ {
		in := Inst{Op: op}
		if op.WritesDst() {
			in.Dst = 3
		}
		if op.ReadsA() {
			in.SrcA = 4
		}
		if op.ReadsB() {
			in.SrcB = 5
		}
		switch {
		case op == FMOVI:
			in.FImm = 2.5
		case op == MOVI || op == ADDI || op == MULI || op == ANDI ||
			op == SHLI || op == SHRI || op == SLTI || op.IsMem():
			in.Imm = 16
		case op.IsControl() && op != HALT && op != BARRIER:
			in.Target = 7
		}
		ins = append(ins, in)
	}
	return ins
}

// TestDecodeRoundTrip: Reassemble(Decode(in)) == in for every opcode —
// the decoded stream carries exactly the information of the architectural
// instruction, so the disassembler (which consumes the Inst form) cannot
// drift from what executes.
func TestDecodeRoundTrip(t *testing.T) {
	for _, in := range allOps() {
		d := Decode(in)
		back := d.Reassemble()
		if back != in {
			t.Errorf("%v: round-trip mismatch: got %+v want %+v (decoded %+v)", in.Op, back, in, d)
		}
		// And the disassembly is unchanged through the round trip.
		if back.String() != in.String() {
			t.Errorf("%v: disassembly changed: %q vs %q", in.Op, back.String(), in.String())
		}
	}
}

// TestDecodeClassification: Kind and Flags agree with the Op predicates the
// issue loop used to call.
func TestDecodeClassification(t *testing.T) {
	for _, in := range allOps() {
		d := Decode(in)
		wantKind := KindALU
		switch {
		case in.Op.IsBranch():
			wantKind = KindBranch
		case in.Op == JMP:
			wantKind = KindJmp
		case in.Op.IsMem():
			wantKind = KindMem
		case in.Op == BARRIER:
			wantKind = KindBarrier
		case in.Op == HALT:
			wantKind = KindHalt
		}
		if d.Kind != wantKind {
			t.Errorf("%v: Kind = %d, want %d", in.Op, d.Kind, wantKind)
		}
		if got, want := d.Flags&DFFloat != 0, in.Op.IsFloat(); got != want {
			t.Errorf("%v: DFFloat = %v, want %v", in.Op, got, want)
		}
		if got, want := d.Flags&DFStore != 0, in.Op == ST; got != want {
			t.Errorf("%v: DFStore = %v, want %v", in.Op, got, want)
		}
		if got, want := d.Flags&DFBranchNZ != 0, in.Op == BNEZ; got != want {
			t.Errorf("%v: DFBranchNZ = %v, want %v", in.Op, got, want)
		}
	}
}

// TestDecodeZeroDst: a write to the architectural zero register is
// redirected to the discard row, and reads of r0 stay row 0.
func TestDecodeZeroDst(t *testing.T) {
	d := Decode(Inst{Op: ADDI, Dst: 0, SrcA: 0, Imm: 9})
	if d.Dst != DiscardReg {
		t.Fatalf("Dst = %d, want DiscardReg (%d)", d.Dst, DiscardReg)
	}
	if d.SrcA != 0 {
		t.Fatalf("SrcA = %d, want 0", d.SrcA)
	}
	if back := d.Reassemble(); back.Dst != 0 {
		t.Fatalf("Reassemble Dst = %d, want 0", back.Dst)
	}
	// Executing it must leave every architectural register untouched.
	lr := NewLaneRegs(4)
	ExecALULanes(&d, lr, lr.full)
	for lane := 0; lane < 4; lane++ {
		for r := Reg(0); r < NumRegs; r++ {
			if lr.Get(lane, r) != 0 {
				t.Fatalf("lane %d r%d = %d after discarded write", lane, r, lr.Get(lane, r))
			}
		}
	}
}

// aluOps is every defined opcode that decodes to KindALU, derived from the ISA
// so that an opcode added to it is differential-tested without being listed.
var aluOps = func() (ops []Op) {
	for op := Op(0); op.Valid(); op++ {
		if Decode(Inst{Op: op}).Kind == KindALU {
			ops = append(ops, op)
		}
	}
	return ops
}()

// randALU yields a random ALU instruction with operands drawn from a small
// register window (so chains of instructions interact). A register field the
// opcode does not use holds an out-of-range number, as the verifier allows.
func randALU(rng *rand.Rand) Inst {
	op := aluOps[rng.Intn(len(aluOps))]
	in := Inst{Op: op, Dst: 200, SrcA: 201, SrcB: 202}
	if op.WritesDst() {
		in.Dst = Reg(rng.Intn(8)) // includes r0: exercises the discard path
	}
	if op.ReadsA() {
		in.SrcA = Reg(rng.Intn(8))
	}
	if op.ReadsB() {
		in.SrcB = Reg(rng.Intn(8))
	}
	if op == FMOVI {
		in.FImm = float64(rng.Intn(64)-32) / 4
	} else {
		in.Imm = int64(rng.Intn(256) - 128)
	}
	return in
}

// TestExecALULanesDifferential fuzzes random ALU instruction sequences with
// random activity masks against the retained per-lane ExecALU oracle: after
// every instruction the SoA register file must match the architectural
// register files bit for bit, under the full mask (the counted loop; at
// width 64 the mask is ^0), under partial masks (the bit scan) and under the
// empty mask, which must change nothing.
func TestExecALULanesDifferential(t *testing.T) {
	for _, width := range []int{1, 8, 16, 64} {
		differentialALU(t, width)
	}
}

func differentialALU(t *testing.T, width int) {
	rng := rand.New(rand.NewSource(int64(width)))
	for trial := 0; trial < 100; trial++ {
		lr := NewLaneRegs(width)
		oracle := make([]RegFile, width)
		// Random starting state (r0 stays zero in both forms).
		for lane := range oracle {
			for r := Reg(1); r < NumRegs; r++ {
				v := rng.Int63() - (1 << 62)
				if rng.Intn(4) == 0 {
					v = int64(math.Float64bits(float64(rng.Intn(64)-32) / 8))
				}
				oracle[lane].Set(r, v)
			}
		}
		lr.SetThreads(oracle)
		for step := 0; step < 50; step++ {
			in := randALU(rng)
			d := Decode(in)
			mask := rng.Uint64() & lr.full
			switch step % 8 {
			case 0, 4:
				mask = lr.full
			case 7:
				mask = 0
			}
			ExecALULanes(&d, lr, mask)
			for lane := range oracle {
				if mask&(1<<uint(lane)) != 0 {
					ExecALU(in, &oracle[lane])
				}
			}
			for lane := range oracle {
				got := lr.Thread(lane)
				for r := Reg(0); r < NumRegs; r++ {
					g, o := got.Get(r), oracle[lane].Get(r)
					if g == o {
						continue
					}
					// Go pins neither NaN payloads nor the operand order
					// of commutative float arithmetic, so the two forms
					// may legitimately produce different NaN encodings of
					// the same architectural value. Re-sync the lane so
					// the divergent payload cannot poison later integer
					// ops on the register.
					if math.IsNaN(f(g)) && math.IsNaN(f(o)) {
						lr.Set(lane, r, o)
						continue
					}
					t.Fatalf("width %d trial %d step %d %v mask %#x lane %d r%d:\n got %v\nwant %v",
						width, trial, step, in, mask, lane, r, got, oracle[lane])
				}
			}
		}
	}
}

// TestDecodeProgramLength is a sanity check that the stream is 1:1 with the
// code (the WPU indexes both with the same pc).
func TestDecodeProgramLength(t *testing.T) {
	code := allOps()
	ds := DecodeProgram(code)
	if len(ds) != len(code) {
		t.Fatalf("len = %d, want %d", len(ds), len(code))
	}
	for pc := range code {
		if ds[pc].Reassemble() != code[pc] {
			t.Fatalf("pc %d: stream entry does not round-trip", pc)
		}
	}
}
