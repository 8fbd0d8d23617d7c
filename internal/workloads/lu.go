package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// LU: dense LU decomposition without pivoting (Splash2, Table 2). Paper
// input: 300×300; scaled: 72×72 (≈ 41 KB matrix). Per elimination step k a
// column-scale kernel and a trailing-submatrix update kernel run; the
// shrinking iteration space makes the loop-exit branches divergent for the
// tail warps (paper: 4.3 % divergent branches) and the alternating
// row-/column-major accesses produce memory divergence.
const luN = 72

// luScaleKernel ABI: R4=&A, R5=N, R6=k. Threads stride over rows i>k:
// A[i][k] /= A[k][k].
func luScaleKernel(n, maxThreads int) *program.Program {
	b := program.NewBuilder("lu-scale")
	b.DeclareRegion(4, int64(n)*int64(n))
	b.DeclareUniformRange(5, int64(n), int64(n))
	b.DeclareUniformRange(6, 0, int64(n-2)) // elimination step k
	b.DeclareThreads(maxThreads)
	b.Addi(8, 6, 1)
	b.Add(8, 8, 1) // i = k+1+tid
	b.Mul(9, 6, 5)
	b.Add(9, 9, 6)
	b.Shli(9, 9, 3)
	b.Add(9, 9, 4)
	b.Ld(10, 9, 0) // pivot = A[k][k]
	b.Label("loop")
	b.Slt(11, 8, 5)
	b.Beqz(11, "done")
	b.Mul(12, 8, 5)
	b.Add(12, 12, 6)
	b.Shli(12, 12, 3)
	b.Add(12, 12, 4)
	b.Ld(13, 12, 0)
	b.Fdiv(14, 13, 10)
	b.St(14, 12, 0)
	b.Add(8, 8, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// luUpdateKernel ABI: R4=&A, R5=N, R6=k, R7=span (N-k-1), R8=span².
// Threads stride over the trailing submatrix: A[i][j] -= A[i][k]*A[k][j].
func luUpdateKernel(n, maxThreads int) *program.Program {
	b := program.NewBuilder("lu-update")
	b.DeclareRegion(4, int64(n)*int64(n))
	b.DeclareUniformRange(5, int64(n), int64(n))
	b.DeclareUniformRange(6, 0, int64(n-2))            // elimination step k
	b.DeclareUniformRange(7, 1, int64(n-1))            // span = N-k-1
	b.DeclareUniformRange(8, 1, int64(n-1)*int64(n-1)) // span²
	b.DeclareThreads(maxThreads)
	b.Mov(9, 1) // m = tid
	b.Label("loop")
	b.Slt(10, 9, 8)
	b.Beqz(10, "done")
	b.Div(11, 9, 7)
	b.Rem(12, 9, 7)
	b.Addi(13, 6, 1)
	b.Add(14, 11, 13) // i
	b.Add(15, 12, 13) // j
	b.Mul(16, 14, 5)  // i*N
	b.Add(17, 16, 6)
	b.Shli(17, 17, 3)
	b.Add(17, 17, 4)
	b.Ld(18, 17, 0) // A[i][k]
	b.Mul(19, 6, 5)
	b.Add(20, 19, 15)
	b.Shli(20, 20, 3)
	b.Add(20, 20, 4)
	b.Ld(21, 20, 0) // A[k][j]
	b.Add(22, 16, 15)
	b.Shli(22, 22, 3)
	b.Add(22, 22, 4)
	b.Ld(23, 22, 0) // A[i][j]
	b.Fmul(24, 18, 21)
	b.Fsub(25, 23, 24)
	b.St(25, 22, 0)
	b.Add(9, 9, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// prepareLU prepares the LU benchmark; the matrix side grows by √scale so
// the O(n³) work grows ≈ scale^1.5.
func prepareLU(scale, capacity int) *prepared {
	im := mem.NewImage()
	n := luN * isqrt(scale)
	a := im.AllocWords(n * n)

	mat := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64((i*37+j*11)%19)/19 + 0.25
			if i == j {
				v += float64(n) // diagonal dominance: no pivoting needed
			}
			mat[i*n+j] = v
		}
	}
	im.Set(a, bits(mat))

	// The first elimination step launches the most threads; declare that as
	// the kernels' thread bound.
	scaleK := luScaleKernel(n, threadsFor(capacity, n-1))
	update := luUpdateKernel(n, threadsFor(capacity, (n-1)*(n-1)))
	var steps []launchSpec
	for k := 0; k < n-1; k++ {
		kk := k
		rows := n - k - 1
		steps = append(steps, launch(scaleK, threadsFor(capacity, rows), func(tid int, r *isa.RegFile) {
			r.Set(4, int64(a))
			r.Set(5, int64(n))
			r.Set(6, int64(kk))
		}))
		span := n - k - 1
		steps = append(steps, launch(update, threadsFor(capacity, span*span), func(tid int, r *isa.RegFile) {
			r.Set(4, int64(a))
			r.Set(5, int64(n))
			r.Set(6, int64(kk))
			r.Set(7, int64(span))
			r.Set(8, int64(span*span))
		}))
	}

	// The reference factors the input in place.
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			mat[i*n+k] /= mat[k*n+k]
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				mat[i*n+j] -= mat[i*n+k] * mat[k*n+j]
			}
		}
	}
	return &prepared{steps: steps, image: im, outputs: []output{{"A", a, bits(mat), relative}}}
}
