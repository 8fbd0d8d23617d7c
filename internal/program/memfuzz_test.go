package program

import (
	"testing"

	"repro/internal/isa"
)

// memFuzzOps extends the divergence-fuzzer menu with loads and stores so
// the memory-access classifier's claims (class, stride, transaction and
// bank-conflict bounds, footprint) face concrete multi-tid execution.
// Targets stay forward-only so programs are loop-free and a concrete
// interpreter enumerates every (pc, tid) execution exactly once.
var memFuzzOps = append(append([]isa.Op(nil), divFuzzOps...), isa.LD, isa.ST)

// FuzzMemAccess cross-checks the static memory-access analysis against
// concrete multi-tid interpretation on loop-free programs: for every
// executed load/store, a uniform claim demands one shared address, an
// affine claim demands addr − stride·tid constant across tids (mod 2^64,
// exactly as the machine wraps), and the observed distinct-line count,
// per-bank line multiplicity, and address span must respect the static
// transaction, bank-conflict and footprint bounds for the fuzzed machine
// geometry. The tids executed form a subset of the bound's lane range, so
// every bound must dominate by subset monotonicity.
func FuzzMemAccess(f *testing.F) {
	// Seeds: a strided store/load pair over addr = 33·tid, a uniform-base
	// load, garbage.
	f.Add([]byte{14, 4, 33, 23, 5, 4, 24, 40, 4})
	f.Add([]byte{2, 4, 64, 23, 5, 4})
	f.Add([]byte{21, 1, 1, 23, 2, 4, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := buildFuzzProgram("memfuzz", memFuzzOps, data)
		if p == nil {
			return
		}
		// T tids, T-lane bound: the concrete run is one full warp of the
		// fuzzed geometry (minus the tids that halt early on other paths).
		const T = 6
		params := MemParams{Lanes: T, LineBytes: 32, Banks: 4, TidStep: 1}
		info := make(map[int]MemAccessInfo)
		for _, a := range p.MemAccessFor(params) {
			info[a.PC] = a
		}

		executed := make(map[int]map[int]uint64) // pc -> tid -> address
		mem := make(map[uint64]int64)
		for tid := 0; tid < T; tid++ {
			runThread(p, tid, T, mem, func(pc int, in isa.Inst, rf *isa.RegFile) {
				if in.Op.IsMem() {
					if executed[pc] == nil {
						executed[pc] = make(map[int]uint64)
					}
					executed[pc][tid] = uint64(rf.Get(in.SrcA) + in.Imm)
				}
			})
		}

		for pc, addrs := range executed {
			a, ok := info[pc]
			if !ok {
				t.Fatalf("pc %d executed a memory access the static table does not list\n%s", pc, p.Disassemble())
			}
			var tids []int
			for tid := 0; tid < T; tid++ {
				if _, ok := addrs[tid]; ok {
					tids = append(tids, tid)
				}
			}

			// Class and stride claims.
			switch a.AClass {
			case AccessUniform:
				for _, tid := range tids[1:] {
					if addrs[tid] != addrs[tids[0]] {
						t.Fatalf("pc %d: uniform claim but tid %d at %#x vs tid %d at %#x\n%s",
							pc, tid, addrs[tid], tids[0], addrs[tids[0]], p.Disassemble())
					}
				}
			case AccessCoalesced, AccessStrided:
				base := addrs[tids[0]] - uint64(a.StrideBytes)*uint64(tids[0])
				for _, tid := range tids[1:] {
					if got := addrs[tid] - uint64(a.StrideBytes)*uint64(tid); got != base {
						t.Fatalf("pc %d: stride-%d claim broken at tid %d (base %#x vs %#x)\n%s",
							pc, a.StrideBytes, tid, got, base, p.Disassemble())
					}
				}
			}

			// Transaction and bank-conflict bounds over the observed lines.
			lines := make(map[uint64]bool)
			banks := make(map[uint64]int)
			for _, tid := range tids {
				line := addrs[tid] / uint64(params.LineBytes)
				if !lines[line] {
					lines[line] = true
					banks[line%uint64(params.Banks)]++
				}
			}
			if len(lines) > a.Transactions {
				t.Fatalf("pc %d (%s): observed %d distinct lines, static bound %d\n%s",
					pc, a.AClass, len(lines), a.Transactions, p.Disassemble())
			}
			for _, n := range banks {
				if n > a.BankConflict {
					t.Fatalf("pc %d (%s): observed %d lines on one bank, static bound %d\n%s",
						pc, a.AClass, n, a.BankConflict, p.Disassemble())
				}
			}

			// Footprint: the touched byte range must fit the static bound.
			// Skip claims the uint64 span arithmetic cannot represent.
			if a.FootprintBytes >= 0 {
				lo, hi := addrs[tids[0]], addrs[tids[0]]
				for _, tid := range tids {
					if addrs[tid] < lo {
						lo = addrs[tid]
					}
					if addrs[tid] > hi {
						hi = addrs[tid]
					}
				}
				if span := hi - lo; span < 1<<62 && int64(span)+isa.WordSize > a.FootprintBytes {
					t.Fatalf("pc %d (%s): observed footprint %d B, static bound %d B\n%s",
						pc, a.AClass, int64(span)+isa.WordSize, a.FootprintBytes, p.Disassemble())
				}
			}
		}
	})
}
