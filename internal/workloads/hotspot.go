package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// HotSpot: iterative thermal-simulation PDE solver (Rodinia, Table 2).
// Paper input: 300×300 grid, 100 iterations; scaled: 60×68, 6 iterations
// (two 32 KB buffers + power array ≈ 96 KB working set). Interior cells do
// a 5-point stencil; boundary cells copy through — the boundary test is the
// benchmark's (rarely) divergent branch (paper: 1.4 %).
const (
	hotspotW     = 60 // deliberately not line-aligned: warp accesses straddle lines
	hotspotH     = 68
	hotspotIters = 6
	hotspotC1    = 0.15 // diffusion coefficient
	hotspotC2    = 0.02 // power coupling
)

// hotspotKernel ABI: R4=&src, R5=&dst, R6=&power, R8=count (W*H).
func hotspotKernel(width, height, maxThreads int) *program.Program {
	b := program.NewBuilder("hotspot")
	w := int64(width)
	cells := w * int64(height)
	b.DeclareRegion(4, cells)
	b.DeclareRegion(5, cells)
	b.DeclareRegion(6, cells)
	b.DeclareUniformRange(8, cells, cells)
	b.DeclareThreads(maxThreads)
	b.Mov(10, 1) // cell = tid
	b.Label("loop")
	b.Slt(11, 10, 8)
	b.Beqz(11, "done")
	b.Movi(30, w)
	b.Div(12, 10, 30) // y
	b.Rem(13, 10, 30) // x
	// boundary = (y==0) | (y==H-1) | (x==0) | (x==W-1)
	b.Seq(14, 12, 0)
	b.Movi(15, int64(height-1))
	b.Seq(16, 12, 15)
	b.Or(14, 14, 16)
	b.Seq(16, 13, 0)
	b.Or(14, 14, 16)
	b.Movi(15, w-1)
	b.Seq(16, 13, 15)
	b.Or(14, 14, 16)
	b.Shli(17, 10, 3) // byte offset
	b.Add(18, 4, 17)  // &src[cell]
	b.Ld(19, 18, 0)   // t
	b.Bnez(14, "boundary")
	// Interior: dst = t + c1*(up+down+left+right - 4t) + c2*power.
	b.Ld(20, 18, -w*8)
	b.Ld(21, 18, w*8)
	b.Fadd(20, 20, 21)
	b.Ld(21, 18, -8)
	b.Fadd(20, 20, 21)
	b.Ld(21, 18, 8)
	b.Fadd(20, 20, 21)
	b.Fmovi(22, 4.0)
	b.Fmul(23, 19, 22)
	b.Fsub(20, 20, 23) // neighbours - 4t
	b.Fmovi(22, hotspotC1)
	b.Fmul(20, 20, 22)
	b.Add(24, 6, 17)
	b.Ld(25, 24, 0) // power
	b.Fmovi(22, hotspotC2)
	b.Fmul(25, 25, 22)
	b.Fadd(20, 20, 25)
	b.Fadd(19, 19, 20)
	b.Label("boundary") // boundary cells just copy t through
	b.Add(26, 5, 17)
	b.St(19, 26, 0)
	b.Add(10, 10, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// buildHotSpot prepares the HotSpot benchmark; scale multiplies the grid
// height (60×68·scale cells).
func buildHotSpot(sys *sim.System, scale int) (*Instance, error) {
	m := sys.Memory()
	w, h := hotspotW, hotspotH*scale
	n := w * h
	bufA := m.AllocWords(n)
	bufB := m.AllocWords(n)
	power := m.AllocWords(n)

	temp := make([]float64, n)
	pw := make([]float64, n)
	for i := range temp {
		x, y := i%w, i/w
		temp[i] = 60 + 20*float64((x*y)%7)/7
		pw[i] = float64((x+3*y)%11) / 11
		m.WriteF(bufA+uint64(i)*8, temp[i])
		m.WriteF(power+uint64(i)*8, pw[i])
	}

	nt := threadsFor(sys, n)
	p := hotspotKernel(w, h, nt)
	var steps []launchSpec
	src, dst := bufA, bufB
	for it := 0; it < hotspotIters; it++ {
		s, d := src, dst
		steps = append(steps, launch(p, nt, func(tid int, r *isa.RegFile) {
			r.Set(4, int64(s))
			r.Set(5, int64(d))
			r.Set(6, int64(power))
			r.Set(8, int64(n))
		}))
		src, dst = dst, src
	}
	final := src // after the last swap, src holds the latest buffer

	verify := func() error {
		cur := append([]float64(nil), temp...)
		next := make([]float64, n)
		for it := 0; it < hotspotIters; it++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					i := y*w + x
					if y == 0 || y == h-1 || x == 0 || x == w-1 {
						next[i] = cur[i]
						continue
					}
					nb := cur[i-w] + cur[i+w] + cur[i-1] + cur[i+1]
					next[i] = cur[i] + hotspotC1*(nb-4*cur[i]) + hotspotC2*pw[i]
				}
			}
			cur, next = next, cur
		}
		for i := 0; i < n; i++ {
			got := m.ReadF(final + uint64(i)*8)
			if !almostEqual(got, cur[i]) {
				return fmt.Errorf("hotspot: cell %d = %g, want %g", i, got, cur[i])
			}
		}
		return nil
	}
	return &Instance{name: "HotSpot", steps: steps, verify: verify}, nil
}
