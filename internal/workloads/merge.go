package workloads

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
)

// Merge: parallel merge sort (Table 2). Paper input: 300,000 integers;
// scaled: 4,096 key/payload records (96 KB — three times an L1), sorted with a
// bitonic merge network — the classic data-parallel formulation of merge
// sort, where every pass is fully parallel. The compare-exchange decision
// branches on element values, so branch divergence is pervasive (the paper
// measures 13.1 % divergent branches and a branch every ~9 instructions),
// and the power-of-two partner strides walk far apart in memory, producing
// memory divergence.
const mergeN = 4096

// mergeKernel performs one bitonic substage. ABI: R4=&a, R6=n, R7=j
// (partner stride), R8=k (direction block size).
func mergeKernel(n, maxThreads int) *program.Program {
	b := program.NewBuilder("merge-bitonic")
	b.DeclareRegion(4, 3*int64(n)) // 24-byte records
	b.DeclareUniformRange(6, int64(n), int64(n))
	b.DeclareUniformRange(7, 1, int64(n/2)) // partner stride j
	b.DeclareUniformRange(8, 2, int64(n))   // direction block size k
	b.DeclareThreads(maxThreads)
	b.Mov(9, 1) // idx = tid
	b.Label("loop")
	b.Slt(10, 9, 6)
	b.Beqz(10, "done")
	b.Xor(11, 9, 7) // partner
	b.Sle(12, 11, 9)
	b.Bnez(12, "skip") // only the lower index of each pair works
	b.Muli(13, 9, 24)  // records are 24 bytes (key, payload, pad): accesses straddle lines
	b.Add(14, 4, 13)
	b.Ld(15, 14, 0) // key[idx]
	b.Muli(16, 11, 24)
	b.Add(17, 4, 16)
	b.Ld(18, 17, 0) // key[partner]
	b.And(19, 9, 8)
	b.Seq(20, 19, 0)  // ascending block?
	b.Slt(21, 18, 15) // key[partner] < key[idx]
	b.Seq(22, 21, 20)
	b.Beqz(22, "skip") // swap needed iff out-of-order for the direction
	b.St(18, 14, 0)
	b.St(15, 17, 0)
	b.Ld(23, 14, 8) // payloads travel with their keys
	b.Ld(24, 17, 8)
	b.St(24, 14, 8)
	b.St(23, 17, 8)
	b.Label("skip")
	b.Add(9, 9, 2)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustVerify()
}

// buildMerge prepares the Merge benchmark at 4096·scale records (scale
// must be a power of two: bitonic networks need power-of-two sizes).
func buildMerge(sys *sim.System, scale int) (*Instance, error) {
	m := sys.Memory()
	n := mergeN * scale
	a := m.AllocWords(3 * n) // 24-byte records (key, payload, pad)

	input := make([]int64, n)
	seed := int64(0x2545F4914F6CDD1D)
	for i := range input {
		// xorshift-style deterministic pseudo-random values
		seed ^= seed << 13
		seed ^= int64(uint64(seed) >> 7)
		seed ^= seed << 17
		input[i] = seed % 1000003
		m.Write(a+uint64(i)*24, input[i])
		m.Write(a+uint64(i)*24+8, int64(i)) // payload: original position
	}

	nt := threadsFor(sys, n)
	p := mergeKernel(n, nt)
	var steps []launchSpec
	for k := 2; k <= n; k *= 2 {
		for j := k / 2; j >= 1; j /= 2 {
			jj, kk := j, k
			steps = append(steps, launch(p, nt, func(tid int, r *isa.RegFile) {
				r.Set(4, int64(a))
				r.Set(6, int64(n))
				r.Set(7, int64(jj))
				r.Set(8, int64(kk))
			}))
		}
	}

	verify := func() error {
		var prev int64 = -1 << 62
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := m.Read(a + uint64(i)*24)
			if v < prev {
				return fmt.Errorf("merge: out[%d]=%d < out[%d]=%d, not sorted", i, v, i-1, prev)
			}
			prev = v
			pay := m.Read(a + uint64(i)*24 + 8)
			if pay < 0 || pay >= int64(n) || seen[pay] {
				return fmt.Errorf("merge: payload %d at %d invalid or duplicated", pay, i)
			}
			seen[pay] = true
			if input[pay] != v {
				return fmt.Errorf("merge: record %d separated from its key (%d != %d)", pay, v, input[pay])
			}
		}
		return nil
	}
	return &Instance{name: "Merge", steps: steps, verify: verify}, nil
}
