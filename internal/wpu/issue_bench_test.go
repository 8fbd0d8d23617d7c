package wpu

// BenchmarkIssueALU pins the cost of the issue loop on ALU-dense code: the
// pre-decoded dispatch in issueOne, the mask scheduler, and the SoA lane
// loops in isa.ExecALULanes. BenchmarkIssueMem pins the memory instruction's
// path on hits: coalescing, the L1 access and the completion events. Both
// are cmd/dwsbench gate suites, so allocation regressions on either fail CI.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/program"
)

// aluKernel is a loop of straight-line integer and float ALU work: eight
// data instructions per iteration, 512 iterations, no memory traffic, so
// issue and execute dominate end to end.
func aluKernel() *program.Program {
	pb := program.NewBuilder("issue-alu")
	pb.Movi(4, 0)
	pb.Movi(5, 3)
	pb.Fmovi(8, 1.5)
	pb.Label("head")
	pb.Addi(4, 4, 1)
	pb.Mul(6, 4, 5)
	pb.Xor(7, 6, 4)
	pb.Shli(7, 7, 2)
	pb.Fmul(9, 8, 8)
	pb.Fadd(8, 9, 8)
	pb.Max(6, 6, 7)
	pb.Slti(10, 4, 512)
	pb.Bnez(10, "head")
	pb.Halt()
	return pb.MustBuild()
}

// memKernel is SVM's dot-product loop over a resident working set: lane i
// reads row i of a 4-word-wide matrix and row i+16, so each 16-lane load
// gathers four consecutive lines (one per bank) and, once the eight lines
// are in the L1, every access hits. 256 iterations of two loads and a
// multiply-add.
func memKernel() *program.Program {
	pb := program.NewBuilder("issue-mem")
	pb.DeclareRegion(4, 128)
	pb.Andi(5, 1, 15)
	pb.Shli(5, 5, 5)
	pb.Add(5, 5, 4) // &x[lane][0]
	pb.Movi(6, 0)
	pb.Fmovi(8, 0)
	pb.Label("head")
	pb.Andi(7, 6, 3)
	pb.Shli(7, 7, 3)
	pb.Add(9, 5, 7) // &x[lane][d]
	pb.Ld(10, 9, 0)
	pb.Ld(11, 9, 512) // &x[lane+16][d]
	pb.Fmul(12, 10, 11)
	pb.Fadd(8, 8, 12)
	pb.Addi(6, 6, 1)
	pb.Slti(13, 6, 256)
	pb.Bnez(13, "head")
	pb.Halt()
	return pb.MustBuild()
}

func BenchmarkIssueALU(b *testing.B) { benchmarkIssue(b, aluKernel(), Config{Warps: 4, Width: 8}) }

func BenchmarkIssueMem(b *testing.B) { benchmarkIssue(b, memKernel(), Config{Warps: 4, Width: 16}) }

// benchmarkIssue runs p to completion on a new WPU per iteration, ticking
// every cycle. R4 holds memKernel's matrix: never written, so it reads as
// zeros and costs no functional-memory page.
func benchmarkIssue(b *testing.B, p *program.Program, cfg Config) {
	cfg = SchemeBranchOnly.Apply(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, q := benchWPU(b, cfg)
		regs := make([]isa.RegFile, cfg.Warps*cfg.Width)
		for tid := range regs {
			regs[tid].Set(1, int64(tid))
			regs[tid].Set(4, 1<<20)
		}
		if err := w.Launch(p, regs); err != nil {
			b.Fatal(err)
		}
		var cycle engine.Cycle
		for !w.Done() {
			q.RunUntil(cycle)
			w.Tick()
			cycle++
		}
	}
}
