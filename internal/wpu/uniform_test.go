package wpu

// Tests for the statically-uniform branch fast path: branches the
// divergence analysis proved uniform are steered by one representative
// lane, never touch the re-convergence stack, and produce architectural
// state identical to lane-by-lane evaluation.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/program"
)

// uniformLoopProgram counts a uniform register to 8 in a loop; the
// loop-exit branch predicate depends only on constants, so the analysis
// classifies it uniform and every dynamic execution is non-divergent.
func uniformLoopProgram(t testing.TB) *program.Program {
	b := program.NewBuilder("uniform-loop")
	b.Movi(4, 0)
	b.Label("head")
	b.Addi(4, 4, 1)
	b.Muli(5, 4, 3)
	b.Slti(6, 4, 8)
	b.Bnez(6, "head")
	b.Halt()
	p := b.MustBuild()
	for pc, in := range p.Code {
		if !in.Op.IsBranch() {
			continue
		}
		bi, _ := p.Branch(pc)
		if !bi.Uniform {
			t.Fatalf("test premise broken: branch @pc %d not statically uniform\n%s", pc, p.Disassemble())
		}
	}
	return p
}

func TestUniformBranchFastPath(t *testing.T) {
	p := uniformLoopProgram(t)
	cfg := SchemeBranchOnly.Apply(Config{Warps: 2, Width: 4})
	w, q, _ := newBareWPU(t, cfg)
	launchSimple(t, w, p, 8, nil)

	// Tick by hand so the stack-depth invariant is checked at every instant:
	// a statically-uniform branch must never push a re-convergence entry.
	var cycle engine.Cycle
	for i := 0; !w.Done(); i++ {
		if i > 1_000_000 {
			t.Fatalf("kernel did not finish:\n%s", w.DebugDump())
		}
		q.RunUntil(cycle)
		w.Tick()
		for _, warp := range w.warps {
			for _, s := range warp.splits {
				if !s.baseStack() {
					t.Fatalf("re-convergence stack grew on a uniform branch: depth %d\n%s",
						len(s.stack), w.DebugDump())
				}
			}
		}
		cycle++
	}

	if w.Stats.UniformBranchFast == 0 {
		t.Fatal("fast path never taken on a statically-uniform loop")
	}
	if w.Stats.DivBranch != 0 || w.Stats.BranchSubdivisions != 0 {
		t.Fatalf("uniform loop diverged: DivBranch=%d subdivisions=%d",
			w.Stats.DivBranch, w.Stats.BranchSubdivisions)
	}
	if w.Stats.Branches != w.Stats.UniformBranchFast {
		t.Fatalf("Branches=%d but UniformBranchFast=%d; every branch here is uniform",
			w.Stats.Branches, w.Stats.UniformBranchFast)
	}
}

// The fast path is an optimisation, not a semantics change: with it
// disabled the same kernel must produce identical registers and cycles.
func TestUniformFastPathPreservesSemantics(t *testing.T) {
	p := uniformLoopProgram(t)
	run := func(disable bool) (*WPU, uint64) {
		cfg := SchemeBranchOnly.Apply(Config{Warps: 2, Width: 4})
		cfg.DisableUniformFast = disable
		w, q, _ := newBareWPU(t, cfg)
		launchSimple(t, w, p, 8, nil)
		return w, runToCompletion(t, w, q)
	}
	fast, fastCycles := run(false)
	slow, slowCycles := run(true)

	if fast.Stats.UniformBranchFast == 0 {
		t.Fatal("fast run did not use the fast path")
	}
	if slow.Stats.UniformBranchFast != 0 {
		t.Fatal("DisableUniformFast did not disable the fast path")
	}
	if fastCycles != slowCycles {
		t.Fatalf("cycle count changed: fast=%d slow=%d", fastCycles, slowCycles)
	}
	for wi := range fast.warps {
		for lane := 0; lane < 4; lane++ {
			for _, r := range []isa.Reg{4, 5, 6} {
				got := fast.warps[wi].regs.Get(lane, r)
				want := slow.warps[wi].regs.Get(lane, r)
				if got != want {
					t.Fatalf("warp %d lane %d r%d: fast=%d slow=%d", wi, lane, r, got, want)
				}
			}
		}
	}
	if fast.Stats.Branches != slow.Stats.Branches {
		t.Fatalf("branch count changed: fast=%d slow=%d", fast.Stats.Branches, slow.Stats.Branches)
	}
}

func benchmarkUniformLoop(b *testing.B, disable bool) {
	p := uniformLoopProgram(b)
	cfg := SchemeBranchOnly.Apply(Config{Warps: 2, Width: 4})
	cfg.DisableUniformFast = disable
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, q, _ := newBareWPU(b, cfg)
		regs := make([]isa.RegFile, 8)
		for tid := range regs {
			regs[tid].Set(1, int64(tid))
			regs[tid].Set(2, 8)
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

func BenchmarkUniformBranchFast(b *testing.B)     { benchmarkUniformLoop(b, false) }
func BenchmarkUniformBranchLaneLoop(b *testing.B) { benchmarkUniformLoop(b, true) }
