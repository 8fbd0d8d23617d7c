package wpu

// A branch every active lane takes the same way is steered by execBranch's
// lane loop without touching the re-convergence stack.

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/program"
)

// uniformLoopProgram counts a uniform register to 8 in a loop; the
// loop-exit branch predicate depends only on constants, so the analysis
// classifies it uniform and every dynamic execution is non-divergent.
func uniformLoopProgram(t *testing.T) *program.Program {
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
		if bi.Class != program.ClassUniform {
			t.Fatalf("test premise broken: branch @pc %d not statically uniform\n%s", pc, p.Disassemble())
		}
	}
	return p
}

func TestUniformBranchNeverPushes(t *testing.T) {
	p := uniformLoopProgram(t)
	cfg := SchemeBranchOnly.Apply(Config{Warps: 2, Width: 4})
	w, q, _ := newBareWPU(t, cfg)
	launchSimple(t, w, p, 8, nil)

	// Tick by hand so the stack-depth invariant is checked at every instant:
	// a non-divergent branch must never push a re-convergence entry.
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

	if w.Stats.Branches == 0 {
		t.Fatal("no branch executed")
	}
	if w.Stats.DivBranch != 0 || w.Stats.BranchSubdivisions != 0 {
		t.Fatalf("uniform loop diverged: DivBranch=%d subdivisions=%d",
			w.Stats.DivBranch, w.Stats.BranchSubdivisions)
	}
}
