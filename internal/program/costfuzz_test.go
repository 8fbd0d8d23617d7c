package program

import (
	"testing"

	"repro/internal/isa"
)

// FuzzCostModel cross-checks the static cost model against a concrete
// multi-tid interpreter on loop-free programs (the memfuzz generator:
// forward-only branches, so every (pc, tid) execution happens at most
// once and the interpreter enumerates the exact dynamic behaviour). The
// model's per-thread claims must hold for every thread:
//
//   - each thread's execution count of every basic block lies inside the
//     block's static Execs interval (this is the claim the post-dominator
//     lower-bound fixpoint and the loop-trip upper bounds compose into);
//   - every loop's Trips and every block's Execs is a well-formed
//     interval, 0 ≤ Lo ≤ Hi;
//   - the summed guaranteed work Σ_blocks Execs.Lo·len never exceeds the
//     cheapest thread's executed instruction count.
func FuzzCostModel(f *testing.F) {
	// Seeds: a tid-dependent branch over an ALU diamond, a strided
	// store/load pair, a straight-line program, garbage.
	f.Add([]byte{5, 4, 1, 19, 2, 4, 1, 9, 1, 23, 5, 4})
	f.Add([]byte{14, 4, 33, 23, 5, 4, 24, 40, 4})
	f.Add([]byte{1, 4, 7, 2, 5, 4, 3, 6, 5})
	f.Add([]byte{21, 1, 1, 23, 2, 4, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram("memfuzz", memFuzzOps, data)
		if p == nil {
			return
		}
		const T = 6
		m := p.CostModelFor(CostParams{WPUs: 1, Threads: T})
		for _, l := range m.Loops {
			if l.Trips.Lo < 0 || l.Trips.Lo > l.Trips.Hi {
				t.Fatalf("loop B%d trip bound %s inverted or negative\n%s", l.Header, l.Trips, p.Disassemble())
			}
		}
		for _, b := range m.Blocks {
			if b.Execs.Lo < 0 || b.Execs.Lo > b.Execs.Hi {
				t.Fatalf("block B%d execution bound %s inverted or negative\n%s", b.ID, b.Execs, p.Disassemble())
			}
		}

		visits := make([][]int64, T) // visits[tid][pc]
		minOps := int64(-1)
		for tid := 0; tid < T; tid++ {
			visits[tid] = make([]int64, len(p.Code))
			ops := int64(0)
			runThread(p, tid, T, make(map[uint64]int64), func(pc int, _ isa.Inst, _ *isa.RegFile) {
				visits[tid][pc]++
				ops++
			})
			if minOps < 0 || ops < minOps {
				minOps = ops
			}
		}

		for tid := 0; tid < T; tid++ {
			for _, b := range m.Blocks {
				got := visits[tid][p.Blocks[b.ID].Start]
				if !b.Execs.Contains(got) {
					t.Fatalf("tid %d executed block B%d %d times, static bound %s\n%s",
						tid, b.ID, got, b.Execs, p.Disassemble())
				}
			}
		}

		lowerOps := int64(0)
		for _, b := range m.Blocks {
			lowerOps += b.Execs.Lo * int64(p.Blocks[b.ID].Len())
		}
		if lowerOps > minOps {
			t.Fatalf("static guaranteed work %d exceeds cheapest thread's %d executed instructions\n%s",
				lowerOps, minOps, p.Disassemble())
		}
	})
}
