package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// SVM: support-vector-machine kernel computation (MineBench, Table 2).
// Paper input: 100,000 vectors × 20 dimensions; scaled: 384 × 12 (36 KB of
// vectors — larger than one L1) with a 64-wide band of the gram matrix
// computed per row. Each thread strides over (i, offset) pairs, gathering
// two rows and applying a polynomial kernel when the dot product is
// positive and a reflected linear kernel otherwise — the sign test
// supplies the paper's ~4 % divergent branches; the strided row gathers
// and streamed result stores supply divergent memory accesses.
const (
	svmN    = 384
	svmD    = 12
	svmBand = 64
)

// svmKernel ABI: R4=&x, R5=&out, R6=N, R7=D, R8=N*Band, R9=Band.
func svmKernel(n, d, band, maxThreads int) *program.Program {
	b := program.NewBuilder("svm")
	b.DeclareRegion(4, int64(n*d))
	b.DeclareRegion(5, int64(n*band))
	b.DeclareUniformRange(6, int64(n), int64(n))
	b.DeclareUniformRange(7, int64(d), int64(d))
	b.DeclareUniformRange(8, int64(n*band), int64(n*band))
	b.DeclareUniformRange(9, int64(band), int64(band))
	b.DeclareThreads(maxThreads)
	b.Mov(10, 1) // pair = tid
	b.Label("loop")
	b.Slt(11, 10, 8)
	b.Beqz(11, "done")
	b.Div(12, 10, 9) // i
	b.Rem(13, 10, 9) // offset
	b.Add(14, 12, 13)
	b.Rem(14, 14, 6) // j = (i + offset) mod N
	b.Mul(15, 12, 7)
	b.Shli(15, 15, 3)
	b.Add(15, 15, 4) // &x[i][0]
	b.Mul(16, 14, 7)
	b.Shli(16, 16, 3)
	b.Add(16, 16, 4) // &x[j][0]
	b.Fmovi(17, 0)   // dot
	b.Movi(18, 0)    // d
	b.Label("dloop")
	b.Slt(19, 18, 7)
	b.Beqz(19, "ddone")
	b.Shli(20, 18, 3)
	b.Add(21, 15, 20)
	b.Ld(22, 21, 0)
	b.Add(23, 16, 20)
	b.Ld(24, 23, 0)
	b.Fmul(25, 22, 24)
	b.Fadd(17, 17, 25)
	b.Addi(18, 18, 1)
	b.Jmp("dloop")
	b.Label("ddone")
	b.Fmovi(26, 0)
	b.Fslt(27, 17, 26)
	b.Bnez(27, "neg") // sign test: data-dependent divergence
	b.Fmul(28, 17, 17)
	b.Jmp("store")
	b.Label("neg")
	b.Fneg(28, 17)
	b.Label("store")
	b.Shli(29, 10, 3)
	b.Add(30, 5, 29)
	b.St(28, 30, 0)
	b.Add(10, 10, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// buildSVM prepares the SVM benchmark at 384·scale vectors.
func buildSVM(sys *sim.System, scale int) (*Instance, error) {
	m := sys.Memory()
	n, d, band := svmN*scale, svmD, svmBand
	x := m.AllocWords(n * d)
	out := m.AllocWords(n * band)

	vecs := make([]float64, n*d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := float64((i*29+j*13)%17)/17 - 0.45
			vecs[i*d+j] = v
			m.WriteF(x+uint64(i*d+j)*8, v)
		}
	}

	nt := threadsFor(sys, n*band)
	p := svmKernel(n, d, band, nt)
	step := launch(p, nt, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(x))
		r.Set(5, int64(out))
		r.Set(6, int64(n))
		r.Set(7, int64(d))
		r.Set(8, int64(n*band))
		r.Set(9, int64(band))
	})

	verify := func() error {
		for i := 0; i < n; i++ {
			for b := 0; b < band; b++ {
				j := (i + b) % n
				dot := 0.0
				for k := 0; k < d; k++ {
					dot += vecs[i*d+k] * vecs[j*d+k]
				}
				want := dot * dot
				if dot < 0 {
					want = -dot
				}
				got := m.ReadF(out + uint64(i*band+b)*8)
				if !almostEqual(got, want) {
					return fmt.Errorf("svm: out[%d,%d] = %g, want %g", i, b, got, want)
				}
			}
		}
		return nil
	}
	return &Instance{name: "SVM", steps: []launchSpec{step}, verify: verify}, nil
}
