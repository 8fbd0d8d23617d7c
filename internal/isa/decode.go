package isa

import "math"

// This file is the pre-decoded dispatch layer: at program build time every
// Inst is lowered into a Decoded — a flat, dispatch-ready form with a dense
// kind index, pre-classified flags, and resolved operand fields — so the
// WPU front end does one table-indexed dispatch per issue instead of
// re-interrogating Op through predicate calls and a nested switch. The Inst
// form stays the authoritative architectural encoding (the builder,
// verifier, and disassembler all consume it); Decoded is derived from it
// and must remain behaviourally identical — decode_test.go checks the
// round-trip and differential-executes both forms.

// Kind is the dispatch category of a decoded instruction. The WPU issue
// loop switches on Kind once per instruction; everything in KindALU is
// handled entirely by ExecALULanes.
type Kind uint8

// Dispatch categories.
const (
	KindALU Kind = iota // register-only effects (includes NOP)
	KindBranch
	KindJmp
	KindMem
	KindBarrier
	KindHalt
)

// DFlags are properties pre-classified at decode time. The low bits are
// fixed by the opcode; the program layer ors in the analysis-driven bits
// (DFSubdiv, the memory class) after verification.
type DFlags uint8

const (
	// DFFloat: executes on the floating-point lanes (energy accounting).
	DFFloat DFlags = 1 << iota
	// DFStore: memory instruction writes (ST); unset means LD.
	DFStore
	// DFBranchNZ: branch taken when the predicate is non-zero (BNEZ);
	// unset means taken-on-zero (BEQZ).
	DFBranchNZ
	// DFSubdiv: static analysis allows dynamic warp subdivision at this
	// branch (program layer; mirrors BranchInfo.Subdividable).
	DFSubdiv
	// DFMemClassLo/DFMemClassHi hold the 2-bit static access class of a
	// memory instruction (program layer; numerically program.AccessClass:
	// 0 uniform, 1 coalesced, 2 strided, 3 divergent-gather).
	DFMemClassLo
	DFMemClassHi
)

// memClassShift is the bit position of DFMemClassLo.
const memClassShift = 4

// MemClass returns the 2-bit static access class the program layer
// encoded for a memory instruction (program.AccessClass numbering).
func (d Decoded) MemClass() uint8 {
	return uint8(d.Flags&(DFMemClassLo|DFMemClassHi)) >> memClassShift
}

// SetMemClass encodes the 2-bit static access class.
func (d *Decoded) SetMemClass(c uint8) {
	d.Flags = d.Flags&^(DFMemClassLo|DFMemClassHi) | DFlags(c&3)<<memClassShift
}

// Decoded is one dispatch-ready instruction. Operand registers are plain
// row indices into the SoA register file; a discarded destination (the
// hardwired zero register) is redirected to DiscardReg at decode time so
// the execution arms never test for it, and an operand the opcode does not
// use is row 0.
type Decoded struct {
	Op    Op
	Kind  Kind
	Flags DFlags
	Dst   uint8
	SrcA  uint8
	SrcB  uint8
	// Imm is the resolved immediate; for FMOVI it holds the float bits so
	// the execution arm is a plain integer store.
	Imm int64
	// Target is the absolute instruction index for control transfers.
	Target int32
	// Reconv is the verified re-convergence pc for conditional branches
	// (program layer; NoIPdom equivalent is -1), unused otherwise.
	Reconv int32
}

// Decode lowers one instruction. The program layer calls this for every
// instruction at Build time and then fills in the analysis-driven fields.
func Decode(in Inst) Decoded {
	d := Decoded{
		Op:     in.Op,
		Kind:   KindALU,
		Dst:    uint8(in.Dst),
		SrcA:   uint8(in.SrcA),
		SrcB:   uint8(in.SrcB),
		Imm:    in.Imm,
		Target: int32(in.Target),
		Reconv: -1,
	}
	switch {
	case in.Op.IsBranch():
		d.Kind = KindBranch
		if in.Op == BNEZ {
			d.Flags |= DFBranchNZ
		}
	case in.Op == JMP:
		d.Kind = KindJmp
	case in.Op.IsMem():
		d.Kind = KindMem
		if in.Op == ST {
			d.Flags |= DFStore
		}
	case in.Op == BARRIER:
		d.Kind = KindBarrier
	case in.Op == HALT:
		d.Kind = KindHalt
	}
	if in.Op.IsFloat() {
		d.Flags |= DFFloat
	}
	if in.Op == FMOVI {
		d.Imm = int64(math.Float64bits(in.FImm))
	}
	// ExecALULanes slices all three operand rows before it looks at the
	// opcode, and the verifier bounds only the registers an opcode uses:
	// the others decode to row 0.
	switch {
	case !in.Op.WritesDst():
		d.Dst = 0
	case in.Dst == 0:
		d.Dst = DiscardReg
	}
	if !in.Op.ReadsA() {
		d.SrcA = 0
	}
	if !in.Op.ReadsB() {
		d.SrcB = 0
	}
	return d
}

// Reassemble reconstructs the architectural instruction, inverting Decode
// (up to the register fields the opcode does not use, which come back zero,
// as the builder leaves them). The differential tests use it to prove the
// decoded stream carries exactly the information of the Inst it came from.
func (d Decoded) Reassemble() Inst {
	in := Inst{
		Op:     d.Op,
		Dst:    Reg(d.Dst),
		SrcA:   Reg(d.SrcA),
		SrcB:   Reg(d.SrcB),
		Imm:    d.Imm,
		Target: int(d.Target),
	}
	if d.Dst == DiscardReg {
		in.Dst = 0
	}
	if d.Op == FMOVI {
		in.FImm = math.Float64frombits(uint64(d.Imm))
		in.Imm = 0
	}
	return in
}

// DecodeProgram lowers a whole instruction stream.
func DecodeProgram(code []Inst) []Decoded {
	ds := make([]Decoded, len(code))
	for pc, in := range code {
		ds[pc] = Decode(in)
	}
	return ds
}
