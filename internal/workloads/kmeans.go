package workloads

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// KMeans: unsupervised classification with map-reduce distance aggregation
// (MineBench, Table 2). Paper input: 10,000 points in 20 dimensions;
// scaled: 4,096 points × 8 dimensions (256 KB of points — 8× an L1),
// 8 clusters, 2 iterations. The assignment kernel's argmin and the update
// kernel's membership test are data-dependent branches (paper: 2 %
// divergent branches), and every thread streams points far beyond its L1.
// The update is the paper's map-reduce: (cluster, chunk) threads produce
// partial sums, a reduce kernel folds the chunks, a finalize kernel
// divides by the member counts.
const (
	kmeansP      = 4096
	kmeansD      = 8 // kernels unroll the dimension loop for this D
	kmeansK      = 8
	kmeansIters  = 2
	kmeansChunks = 32
)

// kmeansAssignKernel ABI: R4=&x, R5=&cent, R6=&assign, R7=P, R8=K, R9=D.
func kmeansAssignKernel(p, k, d, maxThreads int) *program.Program {
	b := program.NewBuilder("kmeans-assign")
	b.DeclareRegion(4, int64(p*d))
	b.DeclareRegion(5, int64(k*d))
	b.DeclareRegion(6, int64(p))
	b.DeclareUniformRange(7, int64(p), int64(p))
	b.DeclareUniformRange(8, int64(k), int64(k))
	b.DeclareUniformRange(9, int64(d), int64(d))
	b.DeclareThreads(maxThreads)
	b.Mov(10, 1) // p = tid
	b.Label("ploop")
	b.Slt(11, 10, 7)
	b.Beqz(11, "pdone")
	b.Mul(12, 10, 9)
	b.Shli(12, 12, 3)
	b.Add(12, 12, 4) // &x[p][0]
	b.Movi(13, 0)    // k
	b.Fmovi(14, 1e30)
	b.Movi(15, 0) // best k
	b.Label("kloop")
	b.Slt(16, 13, 8)
	b.Beqz(16, "kdone")
	b.Mul(17, 13, 9)
	b.Shli(17, 17, 3)
	b.Add(17, 17, 5) // &cent[k][0]
	b.Fmovi(18, 0)   // dist
	b.Movi(19, 0)    // d
	b.Label("dloop")
	b.Slt(20, 19, 9)
	b.Beqz(20, "ddone")
	b.Shli(21, 19, 3)
	b.Add(22, 12, 21)
	b.Ld(23, 22, 0)
	b.Add(24, 17, 21)
	b.Ld(25, 24, 0)
	b.Fsub(26, 23, 25)
	b.Fmul(26, 26, 26)
	b.Fadd(18, 18, 26)
	b.Addi(19, 19, 1)
	b.Jmp("dloop")
	b.Label("ddone")
	b.Fslt(27, 18, 14)
	b.Beqz(27, "notbest") // the argmin update: data-dependent divergence
	b.Mov(14, 18)
	b.Mov(15, 13)
	b.Label("notbest")
	b.Addi(13, 13, 1)
	b.Jmp("kloop")
	b.Label("kdone")
	b.Shli(28, 10, 3)
	b.Add(29, 6, 28)
	b.St(15, 29, 0)
	b.Add(10, 10, 2)
	b.Jmp("ploop")
	b.Label("pdone")
	b.Halt()
	return b.MustVerify()
}

// kmeansUpdateKernel: one thread per (cluster, chunk) accumulates the
// D-dimensional partial sum of its chunk's members in registers.
// ABI: R4=&x, R5=&assign, R6=&psums (K·Chunks·D), R7=&pcounts (K·Chunks),
// R9=D, R10=K·Chunks, R11=Chunks, R12=chunkSize.
func kmeansUpdateKernel(p, k, ch, maxThreads int) *program.Program {
	b := program.NewBuilder("kmeans-update")
	d := kmeansD
	b.DeclareRegion(4, int64(p*d))
	b.DeclareRegion(5, int64(p))
	b.DeclareRegion(6, int64(k*ch*d))
	b.DeclareRegion(7, int64(k*ch))
	b.DeclareUniformRange(9, int64(d), int64(d))
	b.DeclareUniformRange(10, int64(k*ch), int64(k*ch))
	b.DeclareUniformRange(11, int64(ch), int64(ch))
	b.DeclareUniformRange(12, int64(p/ch), int64(p/ch))
	b.DeclareThreads(maxThreads)
	b.Mov(13, 1) // t = tid
	b.Label("loop")
	b.Slt(14, 13, 10)
	b.Beqz(14, "done")
	b.Div(15, 13, 11) // k
	b.Rem(16, 13, 11) // chunk
	b.Mul(17, 16, 12) // pstart
	b.Add(18, 17, 12) // pend
	b.Movi(19, 0)     // count
	for j := 0; j < d; j++ {
		b.Fmovi(isa.Reg(20+j), 0) // accumulators r20..r27
	}
	b.Mov(28, 17) // p
	b.Label("ploop")
	b.Slt(29, 28, 18)
	b.Beqz(29, "pdone")
	b.Shli(30, 28, 3)
	b.Add(31, 5, 30)
	b.Ld(31, 31, 0) // assign[p]
	b.Sne(31, 31, 15)
	b.Bnez(31, "skip") // membership test: data-dependent divergence
	b.Mul(30, 28, 9)
	b.Shli(30, 30, 3)
	b.Add(30, 30, 4) // &x[p][0]
	for j := 0; j < d; j++ {
		b.Ld(29, 30, int64(j*8))
		b.Fadd(isa.Reg(20+j), isa.Reg(20+j), 29)
	}
	b.Addi(19, 19, 1)
	b.Label("skip")
	b.Addi(28, 28, 1)
	b.Jmp("ploop")
	b.Label("pdone")
	b.Muli(29, 13, int64(d*8))
	b.Add(29, 29, 6) // &psums[t*D]
	for j := 0; j < d; j++ {
		b.St(isa.Reg(20+j), 29, int64(j*8))
	}
	b.Shli(30, 13, 3)
	b.Add(30, 30, 7)
	b.St(19, 30, 0)
	b.Add(13, 13, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// kmeansReduceKernel folds the per-chunk partials: one thread per (k, d).
// ABI: R4=&psums, R5=&pcounts, R6=&sums, R7=&counts, R8=K·D, R9=D,
// R10=Chunks.
func kmeansReduceKernel(k, d, ch, maxThreads int) *program.Program {
	b := program.NewBuilder("kmeans-reduce")
	b.DeclareRegion(4, int64(k*ch*d))
	b.DeclareRegion(5, int64(k*ch))
	b.DeclareRegion(6, int64(k*d))
	b.DeclareRegion(7, int64(k))
	b.DeclareUniformRange(8, int64(k*d), int64(k*d))
	b.DeclareUniformRange(9, int64(d), int64(d))
	b.DeclareUniformRange(10, int64(ch), int64(ch))
	b.DeclareThreads(maxThreads)
	b.Mov(11, 1)
	b.Label("loop")
	b.Slt(12, 11, 8)
	b.Beqz(12, "done")
	b.Div(13, 11, 9) // k
	b.Rem(14, 11, 9) // d
	b.Fmovi(15, 0)   // sum
	b.Movi(16, 0)    // count
	b.Movi(17, 0)    // c
	b.Label("cloop")
	b.Slt(18, 17, 10)
	b.Beqz(18, "cdone")
	b.Mul(19, 13, 10)
	b.Add(19, 19, 17) // k*Chunks + c
	b.Mul(20, 19, 9)
	b.Add(20, 20, 14)
	b.Shli(20, 20, 3)
	b.Add(21, 4, 20)
	b.Ld(22, 21, 0)
	b.Fadd(15, 15, 22)
	b.Bnez(14, "nocnt")
	b.Shli(23, 19, 3)
	b.Add(24, 5, 23)
	b.Ld(25, 24, 0)
	b.Add(16, 16, 25)
	b.Label("nocnt")
	b.Addi(17, 17, 1)
	b.Jmp("cloop")
	b.Label("cdone")
	b.Shli(26, 11, 3)
	b.Add(27, 6, 26)
	b.St(15, 27, 0)
	b.Bnez(14, "nostore")
	b.Shli(28, 13, 3)
	b.Add(29, 7, 28)
	b.St(16, 29, 0)
	b.Label("nostore")
	b.Add(11, 11, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// kmeansFinalizeKernel ABI: R4=&cent, R5=&sums, R6=&counts, R7=K·D, R8=D.
func kmeansFinalizeKernel(k, d, maxThreads int) *program.Program {
	b := program.NewBuilder("kmeans-finalize")
	b.DeclareRegion(4, int64(k*d))
	b.DeclareRegion(5, int64(k*d))
	b.DeclareRegion(6, int64(k))
	b.DeclareUniformRange(7, int64(k*d), int64(k*d))
	b.DeclareUniformRange(8, int64(d), int64(d))
	b.DeclareThreads(maxThreads)
	b.Mov(9, 1)
	b.Label("loop")
	b.Slt(10, 9, 7)
	b.Beqz(10, "done")
	b.Div(11, 9, 8) // k
	b.Shli(12, 11, 3)
	b.Add(13, 6, 12)
	b.Ld(14, 13, 0) // counts[k]
	b.Beqz(14, "skip")
	b.Shli(15, 9, 3)
	b.Add(16, 5, 15)
	b.Ld(17, 16, 0) // sums[kd]
	b.Itof(18, 14)
	b.Fdiv(19, 17, 18)
	b.Add(20, 4, 15)
	b.St(19, 20, 0)
	b.Label("skip")
	b.Add(9, 9, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// prepareKMeans prepares the KMeans benchmark at 4096·scale points.
func prepareKMeans(scale, capacity int) *prepared {
	im := mem.NewImage()
	p, d, k, ch := kmeansP*scale, kmeansD, kmeansK, kmeansChunks
	x := im.AllocWords(p * d)
	cent := im.AllocWords(k * d)
	assign := im.AllocWords(p)
	psums := im.AllocWords(k * ch * d)
	pcounts := im.AllocWords(k * ch)
	sums := im.AllocWords(k * d)
	counts := im.AllocWords(k)

	points := make([]float64, p*d)
	for i := 0; i < p; i++ {
		cluster := i % k
		for j := 0; j < d; j++ {
			points[i*d+j] = float64(cluster*10) + float64((i*13+j*7)%23)/23
		}
	}
	c := make([]float64, k*d)
	for cc := 0; cc < k; cc++ {
		copy(c[cc*d:(cc+1)*d], points[((cc*17)%p)*d:])
	}
	im.Set(x, bits(points))
	im.Set(cent, bits(c))

	aK := kmeansAssignKernel(p, k, d, threadsFor(capacity, p))
	uK := kmeansUpdateKernel(p, k, ch, threadsFor(capacity, k*ch))
	rK := kmeansReduceKernel(k, d, ch, threadsFor(capacity, k*d))
	fK := kmeansFinalizeKernel(k, d, threadsFor(capacity, k*d))
	var steps []launchSpec
	for it := 0; it < kmeansIters; it++ {
		steps = append(steps,
			launch(aK, threadsFor(capacity, p), func(tid int, r *isa.RegFile) {
				r.Set(4, int64(x))
				r.Set(5, int64(cent))
				r.Set(6, int64(assign))
				r.Set(7, int64(p))
				r.Set(8, int64(k))
				r.Set(9, int64(d))
			}),
			launch(uK, threadsFor(capacity, k*ch), func(tid int, r *isa.RegFile) {
				r.Set(4, int64(x))
				r.Set(5, int64(assign))
				r.Set(6, int64(psums))
				r.Set(7, int64(pcounts))
				r.Set(9, int64(d))
				r.Set(10, int64(k*ch))
				r.Set(11, int64(ch))
				r.Set(12, int64(p/ch))
			}),
			launch(rK, threadsFor(capacity, k*d), func(tid int, r *isa.RegFile) {
				r.Set(4, int64(psums))
				r.Set(5, int64(pcounts))
				r.Set(6, int64(sums))
				r.Set(7, int64(counts))
				r.Set(8, int64(k*d))
				r.Set(9, int64(d))
				r.Set(10, int64(ch))
			}),
			launch(fK, threadsFor(capacity, k*d), func(tid int, r *isa.RegFile) {
				r.Set(4, int64(cent))
				r.Set(5, int64(sums))
				r.Set(6, int64(counts))
				r.Set(7, int64(k*d))
				r.Set(8, int64(d))
			}),
		)
	}

	// Reference: the same iterations on the host, from the same centroids.
	asg := make([]int64, p)
	sum := make([]float64, d)
	for it := 0; it < kmeansIters; it++ {
		for i := 0; i < p; i++ {
			best, bestK := 1e30, 0
			for cc := 0; cc < k; cc++ {
				dist := 0.0
				for j := 0; j < d; j++ {
					t := points[i*d+j] - c[cc*d+j]
					dist += t * t
				}
				if dist < best {
					best, bestK = dist, cc
				}
			}
			asg[i] = int64(bestK)
		}
		for cc := 0; cc < k; cc++ {
			cnt := 0
			clear(sum)
			for i := 0; i < p; i++ {
				if asg[i] != int64(cc) {
					continue
				}
				cnt++
				for j := 0; j < d; j++ {
					sum[j] += points[i*d+j]
				}
			}
			if cnt > 0 {
				for j := 0; j < d; j++ {
					c[cc*d+j] = sum[j] / float64(cnt)
				}
			}
		}
	}
	return &prepared{steps: steps, image: im, outputs: []output{
		{"assign", assign, asg, exact},
		{"cent", cent, bits(c), relative},
	}}
}
