package workloads

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// FFT: radix-2 decimation-in-time fast Fourier transform (Splash2,
// Table 2). Paper input: 65,536 points; scaled: 2,048 complex points
// (re+im+twiddles ≈ 48 KB). A bit-reversal kernel runs first, then one
// butterfly kernel per stage; the power-of-two strides thrash cache sets
// and produce the paper's frequent memory divergence (misses every ~7
// instructions).
const fftN = 2048

// fftBitrevKernel ABI: R4=&srcRe, R5=&srcIm, R6=&dstRe, R7=&dstIm, R8=n,
// R9=log2(n).
func fftBitrevKernel(n, maxThreads int) *program.Program {
	b := program.NewBuilder("fft-bitrev")
	b.DeclareRegion(4, int64(n))
	b.DeclareRegion(5, int64(n))
	b.DeclareRegion(6, int64(n))
	b.DeclareRegion(7, int64(n))
	lg := 0
	for 1<<lg < n {
		lg++
	}
	b.DeclareUniformRange(8, int64(n), int64(n))
	b.DeclareUniformRange(9, int64(lg), int64(lg))
	b.DeclareThreads(maxThreads)
	b.Mov(10, 1) // i = tid
	b.Label("loop")
	b.Slt(11, 10, 8)
	b.Beqz(11, "done")
	b.Movi(12, 0) // rev
	b.Movi(13, 0) // bit
	b.Label("bitloop")
	b.Slt(14, 13, 9)
	b.Beqz(14, "bitdone")
	b.Shli(12, 12, 1)
	b.Shr(15, 10, 13)
	b.Andi(15, 15, 1)
	b.Or(12, 12, 15)
	b.Addi(13, 13, 1)
	b.Jmp("bitloop")
	b.Label("bitdone")
	b.Shli(16, 10, 3)
	b.Add(17, 4, 16)
	b.Ld(18, 17, 0)
	b.Add(19, 5, 16)
	b.Ld(20, 19, 0)
	b.Shli(21, 12, 3)
	b.Add(22, 6, 21)
	b.St(18, 22, 0)
	b.Add(23, 7, 21)
	b.St(20, 23, 0)
	b.Add(10, 10, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// fftStageKernel ABI: R4=&re, R5=&im, R6=&twRe, R7=&twIm, R9=m (2^stage),
// R10=half (m/2), R11=twiddleStride (n/m), R12=numButterflies (n/2).
func fftStageKernel(n, maxThreads int) *program.Program {
	b := program.NewBuilder("fft-stage")
	b.DeclareRegion(4, int64(n))
	b.DeclareRegion(5, int64(n))
	b.DeclareRegion(6, int64(n/2))
	b.DeclareRegion(7, int64(n/2))
	// Stage s launches m = 2^s (s = 1..log2 n), half = m/2, stride = n/m,
	// and a fixed n/2 butterflies; the ranges cover every stage.
	b.DeclareUniformRange(9, 2, int64(n))
	b.DeclareUniformRange(10, 1, int64(n/2))
	b.DeclareUniformRange(11, 1, int64(n/2))
	b.DeclareUniformRange(12, int64(n/2), int64(n/2))
	b.DeclareThreads(maxThreads)
	b.Mov(13, 1) // b = tid
	b.Label("loop")
	b.Slt(14, 13, 12)
	b.Beqz(14, "done")
	b.Div(15, 13, 10) // group
	b.Rem(16, 13, 10) // pos
	b.Mul(17, 15, 9)
	b.Add(18, 17, 16) // idx1
	b.Add(19, 18, 10) // idx2
	b.Mul(20, 16, 11) // twiddle index
	b.Shli(21, 20, 3)
	b.Add(22, 6, 21)
	b.Ld(23, 22, 0) // wr
	b.Add(22, 7, 21)
	b.Ld(24, 22, 0) // wi
	b.Shli(25, 19, 3)
	b.Add(26, 4, 25)
	b.Ld(27, 26, 0) // re2
	b.Add(28, 5, 25)
	b.Ld(29, 28, 0) // im2
	// t = w * x2: tr = wr*re2 - wi*im2 ; ti = wr*im2 + wi*re2
	b.Fmul(30, 23, 27)
	b.Fmul(31, 24, 29)
	b.Fsub(30, 30, 31) // tr
	b.Fmul(31, 24, 27)
	b.Fmul(23, 23, 29) // wr reused: wr*im2
	b.Fadd(31, 31, 23) // ti
	b.Shli(25, 18, 3)
	b.Add(26, 4, 25)
	b.Ld(27, 26, 0) // re1
	b.Add(28, 5, 25)
	b.Ld(29, 28, 0) // im1
	// x1' = x1 + t ; x2' = x1 - t
	b.Fadd(23, 27, 30)
	b.St(23, 26, 0)
	b.Fadd(24, 29, 31)
	b.St(24, 28, 0)
	b.Fsub(23, 27, 30)
	b.Fsub(24, 29, 31)
	b.Shli(25, 19, 3)
	b.Add(26, 4, 25)
	b.St(23, 26, 0)
	b.Add(28, 5, 25)
	b.St(24, 28, 0)
	b.Add(13, 13, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// buildFFT prepares the FFT benchmark at n = 2048·scale points.
func buildFFT(sys *sim.System, scale int) (*Instance, error) {
	m := sys.Memory()
	n := fftN * scale
	logN := 0
	for 1<<logN < n {
		logN++
	}
	srcRe := m.AllocWords(n)
	srcIm := m.AllocWords(n)
	re := m.AllocWords(n)
	im := m.AllocWords(n)
	twRe := m.AllocWords(n / 2)
	twIm := m.AllocWords(n / 2)

	inRe := make([]float64, n)
	inIm := make([]float64, n)
	for i := 0; i < n; i++ {
		inRe[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.25*float64((i*7)%13)/13
		inIm[i] = 0
		m.WriteF(srcRe+uint64(i)*8, inRe[i])
		m.WriteF(srcIm+uint64(i)*8, inIm[i])
	}
	wr := make([]float64, n/2)
	wi := make([]float64, n/2)
	for j := 0; j < n/2; j++ {
		ang := -2 * math.Pi * float64(j) / float64(n)
		wr[j] = math.Cos(ang)
		wi[j] = math.Sin(ang)
		m.WriteF(twRe+uint64(j)*8, wr[j])
		m.WriteF(twIm+uint64(j)*8, wi[j])
	}

	var steps []launchSpec
	steps = append(steps, launch(fftBitrevKernel(n, threadsFor(sys, n)), threadsFor(sys, n), func(tid int, r *isa.RegFile) {
		r.Set(4, int64(srcRe))
		r.Set(5, int64(srcIm))
		r.Set(6, int64(re))
		r.Set(7, int64(im))
		r.Set(8, int64(n))
		r.Set(9, int64(logN))
	}))
	stage := fftStageKernel(n, threadsFor(sys, n/2))
	for s := 1; s <= logN; s++ {
		mm := 1 << s
		steps = append(steps, launch(stage, threadsFor(sys, n/2), func(tid int, r *isa.RegFile) {
			r.Set(4, int64(re))
			r.Set(5, int64(im))
			r.Set(6, int64(twRe))
			r.Set(7, int64(twIm))
			r.Set(9, int64(mm))
			r.Set(10, int64(mm/2))
			r.Set(11, int64(n/mm))
			r.Set(12, int64(n/2))
		}))
	}

	verify := func() error {
		// Reference: the identical iterative radix-2 algorithm.
		refRe := make([]float64, n)
		refIm := make([]float64, n)
		for i := 0; i < n; i++ {
			rev := 0
			for b := 0; b < logN; b++ {
				rev = rev<<1 | (i >> b & 1)
			}
			refRe[rev] = inRe[i]
			refIm[rev] = inIm[i]
		}
		for s := 1; s <= logN; s++ {
			mm := 1 << s
			half := mm / 2
			stride := n / mm
			for b := 0; b < n/2; b++ {
				group, pos := b/half, b%half
				i1 := group*mm + pos
				i2 := i1 + half
				cr, ci := wr[pos*stride], wi[pos*stride]
				tr := cr*refRe[i2] - ci*refIm[i2]
				ti := cr*refIm[i2] + ci*refRe[i2]
				refRe[i1], refRe[i2] = refRe[i1]+tr, refRe[i1]-tr
				refIm[i1], refIm[i2] = refIm[i1]+ti, refIm[i1]-ti
			}
		}
		for i := 0; i < n; i++ {
			gr := m.ReadF(re + uint64(i)*8)
			gi := m.ReadF(im + uint64(i)*8)
			if math.Abs(gr-refRe[i]) > 1e-6 || math.Abs(gi-refIm[i]) > 1e-6 {
				return fmt.Errorf("fft: X[%d] = (%g,%g), want (%g,%g)", i, gr, gi, refRe[i], refIm[i])
			}
		}
		return nil
	}
	return &Instance{name: "FFT", steps: steps, verify: verify}, nil
}
