package sim

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/wpu"
)

// TestDefaultConfigMatchesTable3 holds every constant of program's
// table3.go to the paper (Table 3, §5.6 for the WST, and this simulator's
// own choice where the table gives none), and the machine DefaultConfig
// builds from them to the same numbers, field by field.
func TestDefaultConfigMatchesTable3(t *testing.T) {
	cfg := DefaultConfig()
	h := cfg.Hier
	for _, c := range []struct {
		name           string
		constant, want int
		fields         []int // the DefaultConfig fields that hold it
	}{
		{"WPUs", program.WPUs, 4, []int{cfg.WPUs}},
		{"Warps", program.Warps, 4, []int{cfg.WPU.Warps}},
		{"Width", program.Width, 16, []int{cfg.WPU.Width}},
		{"WSTEntries", program.WSTEntries, 16, []int{cfg.WPU.WSTEntries}},
		{"LineBytes", program.LineBytes, 128, []int{int(h.L1.LineSize), int(h.L2.LineSize)}},
		{"L1SizeBytes", program.L1SizeBytes, 32 << 10, []int{h.L1.SizeBytes}},
		{"L1Ways", program.L1Ways, 8, []int{h.L1.Ways}},
		{"L1HitLat", program.L1HitLat, 3, []int{int(h.L1.HitLat)}},
		{"L1Banks", program.L1Banks, 16, []int{h.L1.Banks}},
		{"L1MSHRs", program.L1MSHRs, 32, []int{h.L1.MSHRs}},
		{"L2SizeBytes", program.L2SizeBytes, 4 << 20, []int{h.L2.SizeBytes}},
		{"L2Ways", program.L2Ways, 16, []int{h.L2.Ways}},
		{"L2LookupLat", program.L2LookupLat, 30, []int{int(h.L2.LookupLat)}},
		{"L2ProbeLat", program.L2ProbeLat, 12, []int{int(h.L2.ProbeLat)}},
		{"L2MSHRs", program.L2MSHRs, 256, []int{h.L2.MSHRs}},
		{"XbarLat", program.XbarLat, 6, []int{int(h.XbarLat)}},
		{"XbarOcc", program.XbarOcc, 2, []int{int(h.XbarOcc)}},
		{"MemBusOcc", program.MemBusOcc, 8, []int{int(h.MemBusOcc)}},
		{"DRAMLat", program.DRAMLat, 100, []int{int(h.DRAMLat)}},
		{"ICacheBytes", program.ICacheBytes, 16 << 10, nil},
		{"ICacheWays", program.ICacheWays, 4, nil},
		{"InstBytes", program.InstBytes, 8, nil},
		{"ICacheLines", program.ICacheLines, 128, nil},
		{"ICacheInstPerLine", program.ICacheInstPerLine, 16, nil},
		{"IMissLat", program.IMissLat, 42, nil},
	} {
		if c.constant != c.want {
			t.Errorf("program.%s = %d, want %d", c.name, c.constant, c.want)
		}
		for i, f := range c.fields {
			if f != c.want {
				t.Errorf("DefaultConfig's field %d for %s = %d, want %d", i, c.name, f, c.want)
			}
		}
	}
}

// TestTable3ConstantsAreAllChecked keeps TestDefaultConfigMatchesTable3
// complete: every constant table3.go declares must be one of its rows.
func TestTable3ConstantsAreAllChecked(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../program/table3.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("sim_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		for _, s := range d.(*ast.GenDecl).Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				if !bytes.Contains(src, []byte(`{"`+n.Name+`", program.`+n.Name+`,`)) {
					t.Errorf("table3.go declares %s, which TestDefaultConfigMatchesTable3 does not check", n.Name)
				}
			}
		}
	}
}

// TestCostParamsForMapsDefaultConfig: DefaultCostParams and DefaultConfig
// name the same Table 3 constants, so what this checks is CostParamsFor,
// which must hand the WPU count and the data-side geometry to the cost
// model's parameter block in their places.
func TestCostParamsForMapsDefaultConfig(t *testing.T) {
	if got, want := CostParamsFor(DefaultConfig(), 0), program.DefaultCostParams; got != want {
		t.Fatalf("CostParamsFor(DefaultConfig(), 0) = %+v\nprogram.DefaultCostParams = %+v", got, want)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WPUs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("0 WPUs accepted")
	}
	cfg.WPUs = mem.MaxL1s + 1
	if _, err := New(cfg); err == nil {
		t.Fatalf("%d WPUs accepted", cfg.WPUs)
	}
	cfg = DefaultConfig()
	cfg.WPU.Width = 128
	if _, err := New(cfg); err == nil {
		t.Fatal("width 128 accepted")
	}
}

func TestThreadsABI(t *testing.T) {
	regs := Threads(5, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(100+tid))
	})
	if len(regs) != 5 {
		t.Fatalf("%d threads, want 5", len(regs))
	}
	for i := range regs {
		if regs[i].Get(1) != int64(i) {
			t.Fatalf("thread %d: R1 = %d", i, regs[i].Get(1))
		}
		if regs[i].Get(2) != 5 {
			t.Fatalf("thread %d: R2 = %d", i, regs[i].Get(2))
		}
		if regs[i].Get(4) != int64(100+i) {
			t.Fatalf("thread %d: R4 = %d", i, regs[i].Get(4))
		}
	}
}

func TestRunKernelRejectsBadLaunches(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := program.NewBuilder("t")
	b.Halt()
	p := b.MustBuild()
	if _, err := sys.RunKernel(p, nil); err == nil {
		t.Fatal("empty launch accepted")
	}
	too := Threads(sys.ThreadCapacity()+1, nil)
	if _, err := sys.RunKernel(p, too); err == nil {
		t.Fatal("oversized launch accepted")
	}
}

func TestBarrierIgnoresHaltedThreads(t *testing.T) {
	// Barriers synchronise live threads: a warp that halts before a
	// barrier must not deadlock the warps that reach it. The branch is
	// uniform within each warp (tid>>2), so warp 1 halts early while
	// warp 0 parks at the barrier.
	b := program.NewBuilder("early-halt")
	b.Shri(9, 1, 2)
	b.Andi(9, 9, 1)
	b.Bnez(9, "skip")
	b.Barrier()
	b.Label("skip")
	b.Halt()
	p := b.MustBuild()

	cfg := DefaultConfig()
	cfg.WPUs = 1
	cfg.WPU.Warps = 2
	cfg.WPU.Width = 4
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunKernel(p, Threads(8, nil)); err != nil {
		t.Fatalf("early-halting warp deadlocked the barrier: %v", err)
	}
}

func TestClockAccumulatesAcrossKernels(t *testing.T) {
	b := program.NewBuilder("nop")
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	cfg := DefaultConfig()
	cfg.WPUs = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := sys.RunKernel(p, Threads(16, nil))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sys.RunKernel(p, Threads(16, nil))
	if err != nil {
		t.Fatal(err)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("kernels took zero cycles")
	}
	if sys.Cycles() < uint64(c1+c2) {
		t.Fatalf("clock %d < %d + %d", sys.Cycles(), c1, c2)
	}
}

func TestThreadDistributionIsBlockwise(t *testing.T) {
	// Thread i's WPU-local index (R3) must restart per WPU: neighbouring
	// global IDs share warps (§3.1 locality-aware assignment).
	cfg := DefaultConfig()
	cfg.WPUs = 2
	cfg.WPU.Warps = 1
	cfg.WPU.Width = 4
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	out := m.AllocWords(8)
	// Kernel: out[tid] = R3 (the WPU-local index).
	b := program.NewBuilder("local")
	b.Shli(8, 1, 3)
	b.Add(9, 8, 4)
	b.St(3, 9, 0)
	b.Halt()
	p := b.MustBuild()
	threads := Threads(8, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
	})
	if _, err := sys.RunKernel(p, threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := int64(i % 4) // two WPUs x 4 threads, blockwise
		if got := m.Read(out + uint64(i)*8); got != want {
			t.Fatalf("thread %d local index = %d, want %d", i, got, want)
		}
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WPU = wpu.SchemeConv.Apply(cfg.WPU)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := program.NewBuilder("count")
	b.Nop()
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	n := sys.ThreadCapacity()
	if _, err := sys.RunKernel(p, Threads(n, nil)); err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	// 3 instructions per warp x 16 warps across the machine.
	wantIssued := uint64(3 * (n / 16))
	if st.Issued != wantIssued {
		t.Fatalf("Issued = %d, want %d", st.Issued, wantIssued)
	}
	if st.ThreadOps != uint64(3*n) {
		t.Fatalf("ThreadOps = %d, want %d", st.ThreadOps, 3*n)
	}
}

func TestInterleavedDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WPUs = 2
	cfg.WPU.Warps = 1
	cfg.WPU.Width = 4
	cfg.Dist = DistInterleave
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	out := m.AllocWords(8)
	// Kernel: out[tid] = R3 (the WPU-local index).
	b := program.NewBuilder("local")
	b.Shli(8, 1, 3)
	b.Add(9, 8, 4)
	b.St(3, 9, 0)
	b.Halt()
	p := b.MustBuild()
	threads := Threads(8, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
	})
	if _, err := sys.RunKernel(p, threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := int64(i / 2) // round-robin: tids 0,2,4,6 on WPU0 as locals 0..3
		if got := m.Read(out + uint64(i)*8); got != want {
			t.Fatalf("thread %d local index = %d, want %d", i, got, want)
		}
	}
}

// The paper's locality claim (§3.1, [18]): block assignment of neighbouring
// tasks outperforms interleaving them across WPUs on a spatially local
// workload.
func TestBlockDistributionExploitsLocality(t *testing.T) {
	run := func(d Distribution) uint64 {
		cfg := DefaultConfig()
		cfg.Dist = d
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Memory()
		const n = 16 * 1024
		in := m.AllocWords(n)
		out := m.AllocWords(n)
		// Streaming copy: thread t handles elements t, t+T, ... —
		// consecutive tids share cache lines.
		b := program.NewBuilder("copy")
		b.Mov(8, 1)
		b.Label("loop")
		b.Slti(9, 8, n)
		b.Beqz(9, "done")
		b.Shli(10, 8, 3)
		b.Add(11, 4, 10)
		b.Ld(12, 11, 0)
		b.Add(13, 5, 10)
		b.St(12, 13, 0)
		b.Add(8, 8, 2)
		b.Jmp("loop")
		b.Label("done")
		b.Halt()
		p := b.MustBuild()
		threads := Threads(sys.ThreadCapacity(), func(tid int, r *isa.RegFile) {
			r.Set(4, int64(in))
			r.Set(5, int64(out))
		})
		cycles, err := sys.RunKernel(p, threads)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	block := run(DistBlock)
	inter := run(DistInterleave)
	if block > inter {
		t.Fatalf("block distribution (%d cycles) slower than interleaved (%d): locality assignment broken", block, inter)
	}
}
