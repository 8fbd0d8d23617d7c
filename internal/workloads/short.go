package workloads

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Short: winning-path search for chess (dynamic programming over rows,
// Table 2). Paper input: 6 steps × 150,000 choices; scaled: 5 × 16,384
// (two 128 KB rows ping-ponging — together 64 KB per WPU quarter, twice an
// L1, so the row streams continuously). Each cell takes the minimum over
// its {left, centre, right} predecessors plus a position-dependent move
// cost; the min updates and boundary tests branch on data — the paper's
// highest divergent-branch rate (22 %) — and the row streaming produces
// hit/miss divergence at cache-line boundaries.
const (
	shortSteps   = 5
	shortChoices = 16384
	shortCostMod = 15 // cost = (j + 3k + s) & shortCostMod
)

// shortKernel ABI: R4=&prev, R5=&next, R6=choices, R7=step.
func shortKernel(choices, maxThreads int) *program.Program {
	b := program.NewBuilder("short")
	b.DeclareRegion(4, int64(choices))
	b.DeclareRegion(5, int64(choices))
	b.DeclareUniformRange(6, int64(choices), int64(choices))
	b.DeclareUniformRange(7, 0, shortSteps-1)
	b.DeclareThreads(maxThreads)
	b.Mov(8, 1) // j = tid
	b.Label("loop")
	b.Slt(9, 8, 6)
	b.Beqz(9, "done")
	b.Movi(10, 1<<40) // best

	emitCandidate := func(kReg isa.Reg, minLabel string) {
		// cand = prev[k] + ((j + 3k + step) & 15)
		b.Shli(13, kReg, 3)
		b.Add(14, 4, 13)
		b.Ld(15, 14, 0) // prev[k]
		b.Muli(16, kReg, 3)
		b.Add(16, 16, 8)
		b.Add(16, 16, 7)
		b.Andi(16, 16, shortCostMod)
		b.Add(16, 15, 16)
		b.Slt(17, 16, 10)
		b.Beqz(17, minLabel) // min update: data-dependent divergence
		b.Mov(10, 16)
		b.Label(minLabel)
	}

	// Candidate k = j-1 (skipped on the left boundary).
	b.Slti(11, 8, 1)
	b.Bnez(11, "skipL")
	b.Addi(12, 8, -1)
	emitCandidate(12, "minL")
	b.Label("skipL")

	// Candidate k = j (always available).
	emitCandidate(8, "minC")

	// Candidate k = j+1 (skipped on the right boundary).
	b.Addi(18, 6, -1)
	b.Slt(11, 8, 18)
	b.Beqz(11, "skipR")
	b.Addi(12, 8, 1)
	emitCandidate(12, "minR")
	b.Label("skipR")

	b.Shli(19, 8, 3)
	b.Add(20, 5, 19)
	b.St(10, 20, 0)
	b.Add(8, 8, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

func shortCost(step, j, k int) int64 {
	return int64((j + 3*k + step) & shortCostMod)
}

// prepareShort prepares the Short benchmark at 16384·scale choices per row.
func prepareShort(scale, capacity int) *prepared {
	im := mem.NewImage()
	c := shortChoices * scale
	rowA := im.AllocWords(c)
	rowB := im.AllocWords(c)

	cur := make([]int64, c)
	for j := range cur {
		cur[j] = int64((j*7919 + 13) % 97)
	}
	im.Set(rowA, slices.Clone(cur))

	nt := threadsFor(capacity, c)
	p := shortKernel(c, nt)
	var steps []launchSpec
	src, dst := rowA, rowB
	for s := 0; s < shortSteps; s++ {
		sp, dp, step := src, dst, s
		steps = append(steps, launch(p, nt, func(tid int, r *isa.RegFile) {
			r.Set(4, int64(sp))
			r.Set(5, int64(dp))
			r.Set(6, int64(c))
			r.Set(7, int64(step))
		}))
		src, dst = dst, src
	}
	final := src

	next := make([]int64, c)
	for s := 0; s < shortSteps; s++ {
		for j := 0; j < c; j++ {
			best := int64(1) << 40
			for k := max(j-1, 0); k <= min(j+1, c-1); k++ {
				if v := cur[k] + shortCost(s, j, k); v < best {
					best = v
				}
			}
			next[j] = best
		}
		cur, next = next, cur
	}
	return &prepared{steps: steps, image: im, outputs: []output{{"row", final, cur, exact}}}
}
