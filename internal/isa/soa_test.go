package isa

import (
	"bytes"
	"math/bits"
	"os"
	"os/exec"
	"strconv"
	"testing"
)

// TestLanesInline holds the property ExecALULanes' speed rests on: at every
// `range lanes(` site the compiler inlines lanes, then the iterator it
// returns, then the loop body into both of the iterator's loops, so each arm
// compiles to the two plain loops it used to spell by hand. A toolchain that
// stops doing so fails here instead of showing up as a slower benchmark.
func TestLanesInline(t *testing.T) {
	src, err := os.ReadFile("soa.go")
	if err != nil {
		t.Fatal(err)
	}
	sites := bytes.Count(src, []byte("range lanes("))
	if sites == 0 {
		t.Fatal("soa.go has no `range lanes(` site")
	}
	// A warm build cache replays the compiler's output, so this is cheap on
	// every run but the first after an edit.
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, c := range []struct {
		decision string
		want     int
	}{
		{"inlining call to lanes\n", sites},
		{"inlining call to ExecALULanes.lanes.func", sites},
		{"inlining call to ExecALULanes-range", 2 * sites},
	} {
		if got := bytes.Count(out, []byte(c.decision)); got != c.want {
			t.Errorf("%q printed %d times for %d `range lanes(` sites, want %d", c.decision, got, sites, c.want)
		}
	}
}

// aluMix is a ten-instruction integer / floating-point chain over a small
// register window: the body BenchmarkExecALULanes times.
var aluMix = DecodeProgram([]Inst{
	{Op: ADD, Dst: 4, SrcA: 5, SrcB: 6},
	{Op: MUL, Dst: 7, SrcA: 4, SrcB: 5},
	{Op: XOR, Dst: 8, SrcA: 7, SrcB: 4},
	{Op: SHLI, Dst: 9, SrcA: 8, Imm: 3},
	{Op: SLT, Dst: 10, SrcA: 9, SrcB: 7},
	{Op: ADDI, Dst: 5, SrcA: 10, Imm: 17},
	{Op: FADD, Dst: 11, SrcA: 12, SrcB: 13},
	{Op: FMUL, Dst: 12, SrcA: 11, SrcB: 13},
	{Op: FMAX, Dst: 13, SrcA: 12, SrcB: 11},
	{Op: MOV, Dst: 6, SrcA: 8},
})

// aluMixWidth is the warp aluMix runs over.
const aluMixWidth = 16

// aluMixRegs returns an aluMixWidth-lane register file with a distinct value
// in every register the mix reads.
func aluMixRegs() *LaneRegs {
	lr := NewLaneRegs(aluMixWidth)
	for lane := 0; lane < aluMixWidth; lane++ {
		for r := Reg(1); r < 16; r++ {
			lr.Set(lane, r, int64(lane)*7+int64(r))
		}
	}
	return lr
}

// execALUMix runs one pass of aluMix over the lanes in mask.
func execALUMix(lr *LaneRegs, mask uint64) {
	for j := range aluMix {
		ExecALULanes(&aluMix[j], lr, mask)
	}
}

// BenchmarkExecALULanes times one pass of aluMix over a 16-lane warp with 1,
// 4 and all 16 lanes active. TestExecALULanesAllocFree holds the 4-lane leg
// at 0 allocs/op.
func BenchmarkExecALULanes(b *testing.B) {
	for _, mask := range []uint64{0x0100, 0x8421, 1<<aluMixWidth - 1} {
		b.Run(strconv.Itoa(bits.OnesCount64(mask)), func(b *testing.B) {
			lr := aluMixRegs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				execALUMix(lr, mask)
			}
		})
	}
}

// TestExecALULanesAllocFree pins BenchmarkExecALULanes/4 at zero allocations:
// every arm of ExecALULanes ranges over an iterator, and a yield closure that
// starts escaping allocates on every instruction. One partial mask is
// enough, since the arms share the iterator whatever the mask.
func TestExecALULanesAllocFree(t *testing.T) {
	lr := aluMixRegs()
	if allocs := testing.AllocsPerRun(1000, func() { execALUMix(lr, 0x8421) }); allocs != 0 {
		t.Fatalf("one pass of aluMix over 4 of 16 lanes allocated %.1f times, want 0", allocs)
	}
}
