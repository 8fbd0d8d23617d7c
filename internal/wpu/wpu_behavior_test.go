package wpu_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// smallCfg is a 1-WPU machine with a small L1 so tests exercise misses.
func smallCfg(scheme wpu.Scheme) sim.Config {
	c := sim.DefaultConfig()
	c.WPUs = 1
	c.WPU.Warps = 2
	c.WPU.Width = 4
	c.WPU = scheme.Apply(c.WPU)
	c.Hier.L1.SizeBytes = 2 * 1024
	c.Hier.L1.Banks = 4
	return c
}

// vecAddKernel: each thread strides over c[i] = a[i] + b[i].
// ABI: R4 = &a, R5 = &b, R6 = &c, R7 = n.
func vecAddKernel(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("vecadd")
	b.Mov(8, 1) // i = tid
	b.Label("loop")
	b.Slt(9, 8, 7)
	b.Beqz(9, "done")
	b.Shli(10, 8, 3)
	b.Add(11, 4, 10)
	b.Ld(12, 11, 0)
	b.Add(13, 5, 10)
	b.Ld(14, 13, 0)
	b.Add(15, 12, 14)
	b.Add(16, 6, 10)
	b.St(15, 16, 0)
	b.Add(8, 8, 2) // i += nthreads
	b.Jmp("loop")
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

func runVecAdd(t *testing.T, cfg sim.Config, n int) (*sim.System, uint64) {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	a := m.AllocWords(n)
	bb := m.AllocWords(n)
	c := m.AllocWords(n)
	for i := 0; i < n; i++ {
		m.Write(a+uint64(i)*8, int64(i))
		m.Write(bb+uint64(i)*8, int64(3*i))
	}
	nt := min(n, sys.ThreadCapacity())
	threads := sim.Threads(nt, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(a))
		r.Set(5, int64(bb))
		r.Set(6, int64(c))
		r.Set(7, int64(n))
	})
	cycles, err := sys.RunKernel(vecAddKernel(t), threads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Read(c + uint64(i)*8); got != int64(4*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 4*i)
		}
	}
	return sys, cycles
}

func TestVecAddConventional(t *testing.T) {
	sys, cycles := runVecAdd(t, smallCfg(wpu.SchemeConv), 64)
	if cycles == 0 {
		t.Fatal("zero cycles")
	}
	st := sys.TotalStats()
	if st.Issued == 0 || st.MemAccesses == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.DivBranch != 0 {
		t.Fatalf("vecadd has %d divergent branches, want 0", st.DivBranch)
	}
	// With n a multiple of the thread count, every loop-exit branch is
	// uniform and SIMD width stays full.
	if w := st.MeanSIMDWidth(); w != 4 {
		t.Fatalf("mean SIMD width = %g, want 4", w)
	}
}

func TestVecAddAllSchemesCorrectAndComplete(t *testing.T) {
	for _, s := range wpu.AllSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			runVecAdd(t, smallCfg(s), 64)
		})
	}
}

// divergentKernel: out[tid] = odd(tid) ? in[tid]*2 : in[tid]+1.
// ABI: R4 = &in, R5 = &out.
func divergentKernel(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("divergent")
	b.Shli(10, 1, 3)
	b.Add(11, 4, 10)
	b.Ld(12, 11, 0)
	b.Andi(9, 1, 1)
	b.Bnez(9, "odd")
	b.Addi(13, 12, 1)
	b.Jmp("join")
	b.Label("odd")
	b.Muli(13, 12, 2)
	b.Label("join")
	b.Add(14, 5, 10)
	b.St(13, 14, 0)
	b.Halt()
	return b.MustBuild()
}

func runDivergent(t *testing.T, cfg sim.Config) *sim.System {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	n := sys.ThreadCapacity()
	in := m.AllocWords(n)
	out := m.AllocWords(n)
	for i := 0; i < n; i++ {
		m.Write(in+uint64(i)*8, int64(10+i))
	}
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(in))
		r.Set(5, int64(out))
	})
	if _, err := sys.RunKernel(divergentKernel(t), threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int64(10 + i + 1)
		if i%2 == 1 {
			want = int64((10 + i) * 2)
		}
		if got := m.Read(out + uint64(i)*8); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	return sys
}

func TestDivergentBranchConventionalSerialises(t *testing.T) {
	sys := runDivergent(t, smallCfg(wpu.SchemeConv))
	st := sys.TotalStats()
	if st.DivBranch == 0 {
		t.Fatal("no divergent branches recorded")
	}
	if st.BranchSubdivisions != 0 {
		t.Fatal("conventional config subdivided warps")
	}
	// Serialisation halves the width on the two arms.
	if w := st.MeanSIMDWidth(); w >= 4 {
		t.Fatalf("mean width = %g, want < 4 under serialisation", w)
	}
}

func TestDivergentBranchDWSSubdivides(t *testing.T) {
	// Branch subdivision engages when the WPU has no other SIMD group to
	// hide latency with: use a single warp so every divergence qualifies.
	cfg := smallCfg(wpu.SchemeBranchOnly)
	cfg.WPU.Warps = 1
	sys := runDivergent(t, cfg)
	st := sys.TotalStats()
	if st.BranchSubdivisions == 0 {
		t.Fatal("DWS.BranchOnly never subdivided on a divergent branch")
	}
	if st.PeakSplits < 2 {
		t.Fatalf("peak splits = %d, want >= 2", st.PeakSplits)
	}
}

func TestAllSchemesAgreeOnDivergentKernel(t *testing.T) {
	for _, s := range wpu.AllSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			runDivergent(t, smallCfg(s))
		})
	}
}

// memDivergeKernel triggers memory divergence on one instruction: all
// threads warm a shared line, then even threads re-read it (hit) while odd
// threads read private cold lines (miss).
// ABI: R4 = &shared, R5 = &cold (one line per thread), R6 = &out.
func memDivergeKernel(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("memdiv")
	b.Andi(9, 1, 1)  // parity
	b.Addi(10, 1, 1) // tid+1
	b.Mul(11, 9, 10) // parity ? tid+1 : 0
	b.Muli(12, 11, 128)
	b.Add(13, 5, 12) // odd: cold line; even: &cold[0]...
	b.Mul(14, 9, 13) // odd: addr, even: 0
	b.Movi(15, 1)
	b.Sub(16, 15, 9)  // 1-parity
	b.Mul(17, 16, 4)  // even: shared, odd: 0
	b.Add(13, 14, 17) // final address: even→shared, odd→cold line
	b.Ld(18, 4, 0)    // warm the shared line (uniform access)
	b.Ld(19, 13, 0)   // divergent access
	b.Shli(20, 1, 3)
	b.Add(21, 6, 20)
	b.St(19, 21, 0)
	b.Halt()
	return b.MustBuild()
}

func runMemDiverge(t *testing.T, cfg sim.Config) *sim.System {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	n := sys.ThreadCapacity()
	shared := m.AllocWords(16)
	cold := m.AllocWords((n + 2) * 16) // one line (16 words) per thread
	out := m.AllocWords(n)
	m.Write(shared, 777)
	for i := 0; i < n+2; i++ {
		m.Write(cold+uint64(i)*128, int64(1000+i))
	}
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(shared))
		r.Set(5, int64(cold))
		r.Set(6, int64(out))
	})
	if _, err := sys.RunKernel(memDivergeKernel(t), threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int64(777)
		if i%2 == 1 {
			want = int64(1000 + i + 1)
		}
		if got := m.Read(out + uint64(i)*8); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	return sys
}

func TestMemoryDivergenceDetected(t *testing.T) {
	sys := runMemDiverge(t, smallCfg(wpu.SchemeConv))
	st := sys.TotalStats()
	if st.MemDivergent == 0 {
		t.Fatal("no divergent memory access recorded")
	}
	if st.MemSubdivisions != 0 {
		t.Fatal("conventional config subdivided on memory divergence")
	}
}

func TestMemoryDivergenceAggressSplits(t *testing.T) {
	sys := runMemDiverge(t, smallCfg(wpu.SchemeAggress))
	st := sys.TotalStats()
	if st.MemSubdivisions == 0 {
		t.Fatal("AggressSplit never subdivided on memory divergence")
	}
}

func TestMemoryDivergenceAllSchemesAgree(t *testing.T) {
	for _, s := range wpu.AllSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			runMemDiverge(t, smallCfg(s))
		})
	}
}

func TestSlipRecordsEvents(t *testing.T) {
	sys := runMemDiverge(t, smallCfg(wpu.SchemeSlip))
	st := sys.TotalStats()
	if st.SlipEvents == 0 {
		t.Fatal("slip never engaged on memory divergence")
	}
	if st.MemSubdivisions != 0 {
		t.Fatal("slip config used DWS subdivision")
	}
}

// barrierKernel: out[tid] = tid; barrier; res[tid] = out[(tid+1) mod n].
// ABI: R4 = &out, R5 = &res.
func barrierKernel(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("barrier")
	b.Shli(10, 1, 3)
	b.Add(11, 4, 10)
	b.St(1, 11, 0)
	b.Barrier()
	b.Addi(12, 1, 1)
	b.Rem(12, 12, 2)
	b.Shli(13, 12, 3)
	b.Add(14, 4, 13)
	b.Ld(15, 14, 0)
	b.Add(16, 5, 10)
	b.St(15, 16, 0)
	b.Halt()
	return b.MustBuild()
}

func TestBarrierAcrossWPUs(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WPUs = 2
	cfg.WPU.Warps = 2
	cfg.WPU.Width = 4
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	n := sys.ThreadCapacity()
	out := m.AllocWords(n)
	res := m.AllocWords(n)
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
		r.Set(5, int64(res))
	})
	if _, err := sys.RunKernel(barrierKernel(t), threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Read(res + uint64(i)*8); got != int64((i+1)%n) {
			t.Fatalf("res[%d] = %d, want %d", i, got, (i+1)%n)
		}
	}
}

func TestBarrierUnderDWS(t *testing.T) {
	cfg := smallCfg(wpu.SchemeRevive)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	n := sys.ThreadCapacity()
	out := m.AllocWords(n)
	res := m.AllocWords(n)
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
		r.Set(5, int64(res))
	})
	if _, err := sys.RunKernel(barrierKernel(t), threads); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Read(res + uint64(i)*8); got != int64((i+1)%n) {
			t.Fatalf("res[%d] = %d, want %d", i, got, (i+1)%n)
		}
	}
}

func TestWSTFullFallsBackToStack(t *testing.T) {
	cfg := smallCfg(wpu.SchemeBranchOnly)
	cfg.WPU.Warps = 1
	cfg.WPU.WSTEntries = 1 // only the root warp fits: no subdivision room
	sys := func() *sim.System {
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()
	m := sys.Memory()
	n := sys.ThreadCapacity()
	in := m.AllocWords(n)
	out := m.AllocWords(n)
	for i := 0; i < n; i++ {
		m.Write(in+uint64(i)*8, int64(10+i))
	}
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(in))
		r.Set(5, int64(out))
	})
	if _, err := sys.RunKernel(divergentKernel(t), threads); err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	if st.BranchSubdivisions != 0 {
		t.Fatal("subdivided despite a full WST")
	}
	if st.WSTFullRefusals == 0 {
		t.Fatal("no WST-full refusals recorded")
	}
	for i := 0; i < n; i++ {
		want := int64(10 + i + 1)
		if i%2 == 1 {
			want = int64((10 + i) * 2)
		}
		if got := m.Read(out + uint64(i)*8); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestSchedulerSlotContention(t *testing.T) {
	cfg := smallCfg(wpu.SchemeConv)
	cfg.WPU.SchedSlots = 1
	sys, cycles := runVecAdd(t, cfg, 32)
	if cycles == 0 {
		t.Fatal("zero cycles")
	}
	st := sys.TotalStats()
	if st.SlotWaits == 0 {
		t.Fatal("second warp never waited for the single scheduler slot")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	_, a := runVecAdd(t, smallCfg(wpu.SchemeRevive), 64)
	_, b := runVecAdd(t, smallCfg(wpu.SchemeRevive), 64)
	if a != b {
		t.Fatalf("non-deterministic cycles: %d vs %d", a, b)
	}
}

func TestPCReconvergenceMerges(t *testing.T) {
	cfg := smallCfg(wpu.SchemeBranchOnly)
	cfg.WPU.Warps = 1
	sys := runDivergent(t, cfg)
	st := sys.TotalStats()
	if st.PCMerges+st.WaitMerges+st.ScopeMerges == 0 {
		t.Fatal("subdivided warps never re-converged")
	}
}

func TestMultiKernelLaunchAccumulates(t *testing.T) {
	cfg := smallCfg(wpu.SchemeConv)
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Memory()
	n := sys.ThreadCapacity()
	out := m.AllocWords(n)
	res := m.AllocWords(n)
	threads := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
		r.Set(5, int64(res))
	})
	p := barrierKernel(t)
	c1, err := sys.RunKernel(p, threads)
	if err != nil {
		t.Fatal(err)
	}
	threads2 := sim.Threads(n, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(out))
		r.Set(5, int64(res))
	})
	c2, err := sys.RunKernel(p, threads2)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("kernel cycles not recorded")
	}
	if sys.Cycles() < uint64(c1)+uint64(c2) {
		t.Fatal("system clock did not accumulate across kernels")
	}
}
