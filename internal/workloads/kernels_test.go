package workloads

// Kernel-level tests: the benchmark kernels' static structure (branch
// metadata from the compiler layer) and the size of their inputs, scaled
// and unscaled. That every benchmark verifies and leaves Conv's memory
// image under every scheme is report's TestRecycledMachineEqualsFresh.

import (
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

func kernelPrograms(t *testing.T) map[string]*program.Program {
	t.Helper()
	out := make(map[string]*program.Program)
	for _, spec := range All() {
		pl, err := spec.Plan(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pl.Kernels {
			out[p.Name] = p
		}
	}
	return out
}

func TestEveryKernelBuildsAndDisassembles(t *testing.T) {
	progs := kernelPrograms(t)
	if len(progs) < 10 {
		t.Fatalf("only %d distinct kernels", len(progs))
	}
	for name, p := range progs {
		d := p.Disassemble()
		if !strings.Contains(d, "halt") {
			t.Errorf("%s: disassembly lacks a halt:\n%s", name, d)
		}
		if len(p.Code) < 3 {
			t.Errorf("%s: implausibly small kernel", name)
		}
	}
}

func TestEveryKernelLoopBranchHasIPdom(t *testing.T) {
	// Every kernel is a strided loop: its loop-exit branch must have a
	// real immediate post-dominator (the halt block), and at least one
	// branch per kernel must be subdividable.
	progs := kernelPrograms(t)
	for name, p := range progs {
		if p.NumBranches() == 0 {
			t.Errorf("%s: no conditional branches", name)
			continue
		}
		subdividable := false
		for pc := range p.Code {
			bi, ok := p.Branch(pc)
			if !ok {
				continue
			}
			if bi.Subdividable {
				subdividable = true
			}
			if bi.Subdividable && bi.IPdom == program.NoIPdom {
				t.Errorf("%s: subdividable branch at %d without an ipdom", name, pc)
			}
		}
		if !subdividable {
			t.Errorf("%s: no subdividable branch at all", name)
		}
	}
}

func TestKernelRegisterDiscipline(t *testing.T) {
	// No kernel may write R1/R2 (the launch ABI) or read R0 expecting
	// anything but zero. Writes to R0 are legal (discarded) but suspicious
	// in our kernels.
	progs := kernelPrograms(t)
	for name, p := range progs {
		for pc, in := range p.Code {
			if in.Op.IsMem() || in.Op.IsControl() ||
				in.Op.String() == "nop" || in.Op.String() == "halt" || in.Op.String() == "barrier" {
				continue
			}
			if in.Dst == 1 || in.Dst == 2 {
				t.Errorf("%s@%d: kernel overwrites ABI register r%d: %s", name, pc, in.Dst, in)
			}
			if in.Dst == 0 {
				t.Errorf("%s@%d: kernel writes r0: %s", name, pc, in)
			}
		}
	}
}

// The workloads must exercise the machine hard enough to be meaningful:
// working sets beyond the L1 (so misses recur) and nontrivial instruction
// volume.
func TestWorkloadsAreMemoryResident(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			sys := runBench(t, spec, wpu.SchemeConv)
			st := sys.TotalStats()
			l1 := sys.L1Stats()
			if st.ThreadOps < 100_000 {
				t.Errorf("only %d thread-ops: input too small", st.ThreadOps)
			}
			if l1.MissRate() < 0.005 {
				t.Errorf("L1 miss rate %.4f: workload fits in cache", l1.MissRate())
			}
		})
	}
}

// Scaled inputs must still verify (the -scale knob of cmd/dwsim).
func TestScaledWorkloadsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, name := range []string{"Filter", "KMeans", "Merge"} {
		spec, err := ByNameScaled(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			runBench(t, spec, wpu.SchemeRevive)
		})
	}
}

func TestAllWithScaleClampsAndLists(t *testing.T) {
	if got := len(AllWithScale(0)); got != 8 {
		t.Fatalf("AllWithScale(0) has %d entries", got)
	}
	if _, err := ByNameScaled("nope", 2); err == nil {
		t.Fatal("unknown scaled benchmark accepted")
	}
}

func TestIsqrt(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 2}, {8, 2}, {9, 3}, {16, 4}, {17, 4},
	} {
		if got := isqrt(c.in); got != c.want {
			t.Fatalf("isqrt(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
