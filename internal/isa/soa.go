package isa

import (
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

// rows3 returns the destination and both source rows, resliced to the
// destination's length so the compiler can hoist the bounds checks out of
// the per-lane loops.
func (lr *LaneRegs) rows3(d *Decoded) (dst, a, b []int64) {
	w := lr.width
	s := lr.slab
	dst = s[int(d.Dst)*w:][:w]
	a = s[int(d.SrcA)*w:][:w]
	b = s[int(d.SrcB)*w:][:w]
	return
}

// rows2 returns the destination and the SrcA row.
func (lr *LaneRegs) rows2(d *Decoded) (dst, a []int64) {
	dst = lr.Row(d.Dst)
	a = lr.Row(d.SrcA)[:len(dst)]
	return
}

func f(v int64) float64  { return math.Float64frombits(uint64(v)) }
func fb(v float64) int64 { return int64(math.Float64bits(v)) }

// ExecALULanes executes one decoded KindALU instruction across the active
// lanes. This is the inverted hot loop of the execution core: the opcode
// switch runs once per instruction, and each arm is a branch-free pass over
// the lanes — a straight full-width loop when every lane is active (the
// common case), a bit-scan loop otherwise. Behaviour is bit-for-bit the
// per-lane ExecALU oracle's; soa_test.go differential-checks every opcode.
func ExecALULanes(d *Decoded, lr *LaneRegs, mask uint64) {
	full := mask == lr.full
	switch d.Op {
	case NOP, BARRIER, HALT:
		// No register effects.
	case ADD:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] + b[i]
			}
		}
	case SUB:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] - b[i]
			}
		}
	case MUL:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] * b[i]
			}
		}
	case DIV:
		dst, a, b := lr.rows3(d)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if b[i] != 0 {
				dst[i] = a[i] / b[i]
			} else {
				dst[i] = 0
			}
		}
	case REM:
		dst, a, b := lr.rows3(d)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if b[i] != 0 {
				dst[i] = a[i] % b[i]
			} else {
				dst[i] = 0
			}
		}
	case AND:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] & b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] & b[i]
			}
		}
	case OR:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] | b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] | b[i]
			}
		}
	case XOR:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] ^ b[i]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] ^ b[i]
			}
		}
	case SHL:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = a[i] << uint(b[i]&63)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] << uint(b[i]&63)
			}
		}
	case SHR:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = int64(uint64(a[i]) >> uint(b[i]&63))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = int64(uint64(a[i]) >> uint(b[i]&63))
			}
		}
	case SLT:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(a[i] < b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(a[i] < b[i])
			}
		}
	case SLE:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(a[i] <= b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(a[i] <= b[i])
			}
		}
	case SEQ:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(a[i] == b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(a[i] == b[i])
			}
		}
	case SNE:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(a[i] != b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(a[i] != b[i])
			}
		}
	case MIN:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = min(a[i], b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = min(a[i], b[i])
			}
		}
	case MAX:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = max(a[i], b[i])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = max(a[i], b[i])
			}
		}
	case ADDI:
		dst, a := lr.rows2(d)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = a[i] + imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] + imm
			}
		}
	case MULI:
		dst, a := lr.rows2(d)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = a[i] * imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] * imm
			}
		}
	case ANDI:
		dst, a := lr.rows2(d)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = a[i] & imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] & imm
			}
		}
	case SHLI:
		dst, a := lr.rows2(d)
		sh := uint(d.Imm & 63)
		if full {
			for i := range dst {
				dst[i] = a[i] << sh
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i] << sh
			}
		}
	case SHRI:
		dst, a := lr.rows2(d)
		sh := uint(d.Imm & 63)
		if full {
			for i := range dst {
				dst[i] = int64(uint64(a[i]) >> sh)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = int64(uint64(a[i]) >> sh)
			}
		}
	case SLTI:
		dst, a := lr.rows2(d)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = b2i(a[i] < imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(a[i] < imm)
			}
		}
	case MOVI:
		dst := lr.Row(d.Dst)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				dst[bits.TrailingZeros64(m)] = imm
			}
		}
	case MOV:
		dst, a := lr.rows2(d)
		if full {
			copy(dst, a)
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = a[i]
			}
		}
	case FADD:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = fb(f(a[i]) + f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(f(a[i]) + f(b[i]))
			}
		}
	case FSUB:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = fb(f(a[i]) - f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(f(a[i]) - f(b[i]))
			}
		}
	case FMUL:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = fb(f(a[i]) * f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(f(a[i]) * f(b[i]))
			}
		}
	case FDIV:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = fb(f(a[i]) / f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(f(a[i]) / f(b[i]))
			}
		}
	case FNEG:
		dst, a := lr.rows2(d)
		if full {
			for i := range dst {
				dst[i] = fb(-f(a[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(-f(a[i]))
			}
		}
	case FABS:
		dst, a := lr.rows2(d)
		if full {
			for i := range dst {
				dst[i] = fb(math.Abs(f(a[i])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(math.Abs(f(a[i])))
			}
		}
	case FMIN:
		dst, a, b := lr.rows3(d)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			dst[i] = fb(math.Min(f(a[i]), f(b[i])))
		}
	case FMAX:
		dst, a, b := lr.rows3(d)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			dst[i] = fb(math.Max(f(a[i]), f(b[i])))
		}
	case FSLT:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(f(a[i]) < f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(f(a[i]) < f(b[i]))
			}
		}
	case FSLE:
		dst, a, b := lr.rows3(d)
		if full {
			for i := range dst {
				dst[i] = b2i(f(a[i]) <= f(b[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = b2i(f(a[i]) <= f(b[i]))
			}
		}
	case FMOVI:
		// Imm already holds the float bits (decode-time conversion).
		dst := lr.Row(d.Dst)
		imm := d.Imm
		if full {
			for i := range dst {
				dst[i] = imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				dst[bits.TrailingZeros64(m)] = imm
			}
		}
	case ITOF:
		dst, a := lr.rows2(d)
		if full {
			for i := range dst {
				dst[i] = fb(float64(a[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = fb(float64(a[i]))
			}
		}
	case FTOI:
		dst, a := lr.rows2(d)
		if full {
			for i := range dst {
				dst[i] = int64(f(a[i]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				dst[i] = int64(f(a[i]))
			}
		}
	default:
		panic("isa: ExecALULanes on " + d.Op.String())
	}
}
