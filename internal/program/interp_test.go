package program

import (
	"testing"

	"repro/internal/isa"
)

// runThread is the concrete reference interpreter the analysis fuzzers
// share. It runs thread tid of a T-thread launch of p under the launch ABI
// they assume — r1 the global tid, r2 the uniform thread count, r3 a
// divergent value in [0, 4] standing in for the chunk-local index — calling
// visit before every instruction it executes, the final HALT included, with
// the register file as that instruction sees it. Loads and stores go through
// mem, which the caller owns (shared across threads or one per thread). The
// step cap is the program length: fuzz programs branch forward only, so no
// (pc, tid) pair executes twice.
func runThread(p *Program, tid, T int, mem map[uint64]int64, visit func(pc int, in isa.Inst, rf *isa.RegFile)) {
	var rf isa.RegFile
	rf.Set(1, int64(tid))
	rf.Set(2, int64(T))
	rf.Set(3, int64((tid*7+3)%5))
	pc := 0
	for steps := 0; steps <= len(p.Code); steps++ {
		in := p.Code[pc]
		visit(pc, in, &rf)
		switch {
		case in.Op == isa.HALT:
			return
		case in.Op.IsMem():
			addr := uint64(rf.Get(in.SrcA) + in.Imm)
			if in.Op == isa.ST {
				mem[addr] = rf.Get(in.SrcB)
			} else {
				rf.Set(in.Dst, mem[addr])
			}
			pc++
		case in.Op.IsBranch():
			if isa.BranchTaken(in, &rf) {
				pc = in.Target
			} else {
				pc++
			}
		case in.Op == isa.JMP:
			pc = in.Target
		default:
			isa.ExecALU(in, &rf)
			pc++
		}
	}
}

// checkDominance asserts that the view's one bitset dominance routine and
// the independent Cooper-Harvey-Kennedy algorithm agree in both directions —
// immediate dominators from the entry block, immediate post-dominators from
// the virtual exit — and returns the two immediate-post-dominator tables.
func checkDominance(t testing.TB, p *Program) (ipdom, chk []int) {
	t.Helper()
	g := newCFGView(p.Blocks)
	succ := make([][]int, len(p.Blocks))
	for v, b := range p.Blocks {
		succ[v] = b.Succ
	}
	fwd := chkIdom(succ, 0)
	fwd[0] = -1 // CHK roots its tree at the entry; the bitset routine reports no strict dominator
	for v, d := range immediate(g.dom) {
		if d != fwd[v] {
			t.Errorf("block %d: bitset idom %d != CHK idom %d", v, d, fwd[v])
		}
	}
	ipdom, chk = g.ipdom, verifiedIPdom(p.Blocks)
	for v := range p.Blocks {
		if ipdom[v] != chk[v] {
			t.Errorf("block %d: bitset ipdom %d != CHK ipdom %d", v, ipdom[v], chk[v])
		}
	}
	return ipdom, chk
}
