package wpu

// BenchmarkIssueALU pins the cost of the issue loop on ALU-dense code: the
// pre-decoded dispatch in issueOne, the mask scheduler, and the SoA lane
// loops in isa.ExecALULanes. BenchmarkIssueMem pins the memory instruction's
// path on hits: coalescing, the L1 access and the completion events.
// TestIssueAllocs holds the allocation count of both.

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

var (
	aluMachine = Config{Warps: 4, Width: 8}
	memMachine = Config{Warps: 4, Width: 16}
)

func BenchmarkIssueALU(b *testing.B) { benchmarkIssue(b, aluKernel(), aluMachine) }

func BenchmarkIssueMem(b *testing.B) { benchmarkIssue(b, memKernel(), memMachine) }

func benchmarkIssue(b *testing.B, p *program.Program, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runIssue(b, p, cfg)
	}
}

// runIssue runs p to completion on a new BranchOnly WPU, ticking every
// cycle. R4 holds memKernel's matrix: never written, so it reads as zeros
// and costs no functional-memory page.
func runIssue(tb testing.TB, p *program.Program, cfg Config) {
	cfg = SchemeBranchOnly.Apply(cfg)
	w, q, _ := newBareWPU(tb, cfg)
	regs := make([]isa.RegFile, cfg.Warps*cfg.Width)
	for tid := range regs {
		regs[tid].Set(1, int64(tid))
		regs[tid].Set(4, 1<<20)
	}
	if err := w.Launch(p, regs); err != nil {
		tb.Fatal(err)
	}
	var cycle engine.Cycle
	for !w.Done() {
		q.RunUntil(cycle)
		w.Tick()
		cycle++
	}
}

// TestIssueAllocs holds one op of BenchmarkIssueALU and BenchmarkIssueMem
// to at most 10 % over the allocation count written here.
func TestIssueAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *program.Program
		cfg  Config
		pin  float64
	}{
		{"ALU", aluKernel(), aluMachine, 95},
		{"Mem", memKernel(), memMachine, 149},
	} {
		allocs := testing.AllocsPerRun(20, func() { runIssue(t, c.p, c.cfg) })
		t.Logf("Issue%s: %.0f allocs/op", c.name, allocs)
		if allocs > 1.1*c.pin {
			t.Errorf("Issue%s: %.0f allocs/op, pinned at %.0f (+10 %% allowed)", c.name, allocs, c.pin)
		}
	}
}
