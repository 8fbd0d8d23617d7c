// The build line is what lets this file range over a function (lanes, below):
// that needs language version 1.23, a go1.N build constraint sets the
// language version of the one file that carries it, and go.mod stays at
// go 1.22, which bench/go.mod (a module that imports this one and that a
// change here may not edit) requires it not to exceed.

//go:build go1.23

package isa

import (
	"iter"
	"math"
	"math/bits"
)

// DiscardReg is the extra SoA row that absorbs architecturally discarded
// writes (destination r0). Redirecting the row index at decode time keeps
// the execution arms free of zero-register tests; reads of r0 go to row 0,
// which is never written and so stays zero.
const DiscardReg = NumRegs

// LaneRegs is the struct-of-arrays register file of one warp: row r holds
// register r across every lane, so a SIMD instruction's operands are three
// contiguous slices and the per-op execution loop is a tight pass over the
// active lanes. All rows live in one slab allocation.
type LaneRegs struct {
	width int
	full  uint64 // mask with every lane set
	slab  []int64
}

// NewLaneRegs builds a zeroed register file for width lanes (width ≤ 64).
func NewLaneRegs(width int) *LaneRegs {
	if width <= 0 || width > 64 {
		panic("isa: LaneRegs width must be in 1..64")
	}
	full := ^uint64(0)
	if width < 64 {
		full = 1<<uint(width) - 1
	}
	return &LaneRegs{
		width: width,
		full:  full,
		slab:  make([]int64, (NumRegs+1)*width),
	}
}

// Clear zeroes every register of every lane, the state NewLaneRegs builds.
func (lr *LaneRegs) Clear() { clear(lr.slab) }

// Width returns the lane count.
func (lr *LaneRegs) Width() int { return lr.width }

// Row returns register r's values across all lanes. r may be DiscardReg.
func (lr *LaneRegs) Row(r uint8) []int64 {
	off := int(r) * lr.width
	return lr.slab[off : off+lr.width : off+lr.width]
}

// Get reads one lane's register, honouring the hardwired zero register.
func (lr *LaneRegs) Get(lane int, r Reg) int64 {
	if r == 0 {
		return 0
	}
	return lr.slab[int(r)*lr.width+lane]
}

// Set writes one lane's register; writes to r0 are discarded.
func (lr *LaneRegs) Set(lane int, r Reg, v int64) {
	if r != 0 {
		lr.slab[int(r)*lr.width+lane] = v
	}
}

// GetF reads one lane's register as float64.
func (lr *LaneRegs) GetF(lane int, r Reg) float64 {
	return math.Float64frombits(uint64(lr.Get(lane, r)))
}

// SetThread scatters one thread's architectural register file into a lane
// column. Row 0 is skipped: the zero register reads as zero whatever the
// source array holds, exactly like RegFile.Get.
func (lr *LaneRegs) SetThread(lane int, rf *RegFile) {
	for r := 1; r < NumRegs; r++ {
		lr.slab[r*lr.width+lane] = rf[r]
	}
}

// SetThreads scatters register files for lanes [0, len(rfs)) in one pass,
// row-major so each register row is filled with sequential writes instead
// of len(rfs) strided column scatters. Launch-time bulk load.
func (lr *LaneRegs) SetThreads(rfs []RegFile) {
	if len(rfs) > lr.width {
		panic("isa: more register files than lanes")
	}
	for r := 1; r < NumRegs; r++ {
		row := lr.slab[r*lr.width : r*lr.width+len(rfs)]
		for l := range rfs {
			row[l] = rfs[l][r]
		}
	}
}

// Thread gathers one lane column back into an architectural register file
// (tests and debugging; the simulator itself never needs the AoS form).
func (lr *LaneRegs) Thread(lane int) RegFile {
	var rf RegFile
	for r := 1; r < NumRegs; r++ {
		rf[r] = lr.slab[r*lr.width+lane]
	}
	return rf
}

// rows returns the destination and both source rows, resliced to one length
// so the compiler can hoist the bounds checks out of the full-width loops.
// Decode leaves an operand the opcode does not read at row 0, so all three
// are valid rows whatever the opcode.
func (lr *LaneRegs) rows(d *Decoded) (dst, a, b []int64) {
	w := lr.width
	s := lr.slab
	dst = s[int(d.Dst)*w:][:w]
	a = s[int(d.SrcA)*w:][:w]
	b = s[int(d.SrcB)*w:][:w]
	return
}

func f(v int64) float64  { return math.Float64frombits(uint64(v)) }
func fb(v float64) int64 { return int64(math.Float64bits(v)) }

// lanes yields the lanes an instruction executes on: 0..n-1 in a straight
// counted loop when every lane is active (the common case), the set bits of
// mask by bit scan otherwise. Inlined with its loop body into each arm of
// ExecALULanes, it leaves there the two loops the arm would otherwise spell
// by hand; TestLanesInline checks that every call site is.
func lanes(mask uint64, full bool, n int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if full {
			for i := 0; i < n; i++ {
				if !yield(i) {
					return
				}
			}
			return
		}
		for m := mask; m != 0; m &= m - 1 {
			if !yield(bits.TrailingZeros64(m)) {
				return
			}
		}
	}
}

// ExecALULanes executes one decoded KindALU instruction across the active
// lanes. This is the inverted hot loop of the execution core: the opcode
// switch runs once per instruction, and each arm is one pass of the opcode's
// expression over lanes. Behaviour is bit-for-bit the per-lane ExecALU
// oracle's; TestExecALULanesDifferential (decode_test.go) checks every
// opcode against it.
func ExecALULanes(d *Decoded, lr *LaneRegs, mask uint64) {
	dst, a, b := lr.rows(d)
	n, full, imm := len(dst), mask == lr.full, d.Imm
	sh := uint(imm & 63) // SHLI, SHRI
	switch d.Op {
	case NOP, BARRIER, HALT:
		// No register effects.
	case ADD:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] + b[i]
		}
	case SUB:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] - b[i]
		}
	case MUL:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] * b[i]
		}
	case DIV:
		for i := range lanes(mask, full, n) {
			if b[i] != 0 {
				dst[i] = a[i] / b[i]
			} else {
				dst[i] = 0
			}
		}
	case REM:
		for i := range lanes(mask, full, n) {
			if b[i] != 0 {
				dst[i] = a[i] % b[i]
			} else {
				dst[i] = 0
			}
		}
	case AND:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] & b[i]
		}
	case OR:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] | b[i]
		}
	case XOR:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] ^ b[i]
		}
	case SHL:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] << uint(b[i]&63)
		}
	case SHR:
		for i := range lanes(mask, full, n) {
			dst[i] = int64(uint64(a[i]) >> uint(b[i]&63))
		}
	case SLT:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(a[i] < b[i])
		}
	case SLE:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(a[i] <= b[i])
		}
	case SEQ:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(a[i] == b[i])
		}
	case SNE:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(a[i] != b[i])
		}
	case MIN:
		for i := range lanes(mask, full, n) {
			dst[i] = min(a[i], b[i])
		}
	case MAX:
		for i := range lanes(mask, full, n) {
			dst[i] = max(a[i], b[i])
		}
	case ADDI:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] + imm
		}
	case MULI:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] * imm
		}
	case ANDI:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] & imm
		}
	case SHLI:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i] << sh
		}
	case SHRI:
		for i := range lanes(mask, full, n) {
			dst[i] = int64(uint64(a[i]) >> sh)
		}
	case SLTI:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(a[i] < imm)
		}
	case MOVI, FMOVI:
		// FMOVI: Imm already holds the float bits (decode-time conversion).
		for i := range lanes(mask, full, n) {
			dst[i] = imm
		}
	case MOV:
		for i := range lanes(mask, full, n) {
			dst[i] = a[i]
		}
	case FADD:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(f(a[i]) + f(b[i]))
		}
	case FSUB:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(f(a[i]) - f(b[i]))
		}
	case FMUL:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(f(a[i]) * f(b[i]))
		}
	case FDIV:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(f(a[i]) / f(b[i]))
		}
	case FNEG:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(-f(a[i]))
		}
	case FABS:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(math.Abs(f(a[i])))
		}
	case FMIN:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(math.Min(f(a[i]), f(b[i])))
		}
	case FMAX:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(math.Max(f(a[i]), f(b[i])))
		}
	case FSLT:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(f(a[i]) < f(b[i]))
		}
	case FSLE:
		for i := range lanes(mask, full, n) {
			dst[i] = b2i(f(a[i]) <= f(b[i]))
		}
	case ITOF:
		for i := range lanes(mask, full, n) {
			dst[i] = fb(float64(a[i]))
		}
	case FTOI:
		for i := range lanes(mask, full, n) {
			dst[i] = int64(f(a[i]))
		}
	default:
		panic("isa: ExecALULanes on " + d.Op.String())
	}
}
