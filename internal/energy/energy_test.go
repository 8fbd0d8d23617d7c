package energy

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

func TestBreakdownTotals(t *testing.T) {
	b := Breakdown{Fetch: 1, ALU: 2, RegFile: 3, Bus: 4, L1: 5, L2: 6, Xbar: 7, DRAM: 8, Clock: 9, Leakage: 10}
	if b.Total() != 55 {
		t.Fatalf("Total = %g", b.Total())
	}
	if b.TotalmJ() != 55/1e6 {
		t.Fatalf("TotalmJ = %g", b.TotalmJ())
	}
	if b.DynamicmJ() != 36/1e6 {
		t.Fatalf("DynamicmJ = %g", b.DynamicmJ())
	}
	if b.LeakagemJ() != 19/1e6 {
		t.Fatalf("LeakagemJ = %g", b.LeakagemJ())
	}
}

func TestEstimateRawComponents(t *testing.T) {
	st := wpu.Stats{Issued: 100, ThreadOps: 1000, FloatOps: 200}
	l1 := mem.L1Stats{Accesses: 50}
	b := EstimateRaw(st, l1, 10, 20, 2, 1000, 4, 32, 4)
	if b.Fetch != FetchDecodeNJ*100 {
		t.Fatalf("Fetch = %g", b.Fetch)
	}
	if b.ALU != IntOpNJ*1000+FloatOpNJ*200 {
		t.Fatalf("ALU = %g", b.ALU)
	}
	if b.L1 != L1AccessNJ*50 || b.L2 != L2AccessNJ*10 || b.Xbar != XbarNJ*20 {
		t.Fatalf("cache energies wrong: %+v", b)
	}
	if b.DRAM != DRAMNJ*2 {
		t.Fatalf("DRAM = %g", b.DRAM)
	}
	if b.Clock != ClockPerWPUNJ*4*1000 {
		t.Fatalf("Clock = %g", b.Clock)
	}
	wantLeak := (LeakPerWPUNJ*4 + LeakL2NJ) * 1000
	if b.Leakage != wantLeak {
		t.Fatalf("Leakage = %g, want %g", b.Leakage, wantLeak)
	}
}

func TestLeakageScalesWithCacheSizes(t *testing.T) {
	var st wpu.Stats
	var l1 mem.L1Stats
	small := EstimateRaw(st, l1, 0, 0, 0, 1000, 4, 8, 4)
	base := EstimateRaw(st, l1, 0, 0, 0, 1000, 4, 32, 4)
	big := EstimateRaw(st, l1, 0, 0, 0, 1000, 4, 128, 4)
	if !(small.Leakage < base.Leakage && base.Leakage < big.Leakage) {
		t.Fatalf("L1 leakage not monotonic: %g %g %g", small.Leakage, base.Leakage, big.Leakage)
	}
	bigL2 := EstimateRaw(st, l1, 0, 0, 0, 1000, 4, 32, 8)
	if bigL2.Leakage <= base.Leakage {
		t.Fatal("L2 leakage not monotonic in size")
	}
}

func TestLeakageFloors(t *testing.T) {
	var st wpu.Stats
	var l1 mem.L1Stats
	// Tiny caches must not produce zero or negative leakage.
	b := EstimateRaw(st, l1, 0, 0, 0, 1000, 1, 1, 0)
	if b.Leakage <= 0 {
		t.Fatalf("Leakage = %g, want > 0", b.Leakage)
	}
}

// Property: energy is monotonic in every counter.
func TestPropertyMonotonicInActivity(t *testing.T) {
	f := func(issued, ops uint32) bool {
		a := EstimateRaw(wpu.Stats{Issued: uint64(issued), ThreadOps: uint64(ops)},
			mem.L1Stats{}, 0, 0, 0, 1000, 4, 32, 4)
		b := EstimateRaw(wpu.Stats{Issued: uint64(issued) + 1, ThreadOps: uint64(ops) + 1},
			mem.L1Stats{}, 0, 0, 0, 1000, 4, 32, 4)
		return b.Total() > a.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: leakage scales linearly with cycles.
func TestPropertyLeakageLinearInTime(t *testing.T) {
	f := func(cyc uint16) bool {
		c := uint64(cyc) + 1
		a := EstimateRaw(wpu.Stats{}, mem.L1Stats{}, 0, 0, 0, c, 4, 32, 4)
		b := EstimateRaw(wpu.Stats{}, mem.L1Stats{}, 0, 0, 0, 2*c, 4, 32, 4)
		return almostEq(b.Leakage, 2*a.Leakage) && almostEq(b.Clock, 2*a.Clock)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+a+b)
}

// End-to-end: Estimate over a real (tiny) simulation must attribute energy
// to every active component.
func TestEstimateEndToEnd(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WPUs = 1
	cfg.WPU.Warps = 1
	cfg.WPU.Width = 4
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := program.NewBuilder("e2e")
	b.Shli(8, 1, 3)
	b.Add(8, 8, 4)
	b.Ld(9, 8, 0)
	b.Fadd(10, 9, 9)
	b.St(10, 8, 0)
	b.Halt()
	p := b.MustBuild()
	base := sys.Memory().AllocWords(4)
	threads := sim.Threads(4, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(base))
	})
	if _, err := sys.RunKernel(p, threads); err != nil {
		t.Fatal(err)
	}
	e := Estimate(sys)
	for name, v := range map[string]float64{
		"fetch": e.Fetch, "alu": e.ALU, "regfile": e.RegFile,
		"l1": e.L1, "l2": e.L2, "xbar": e.Xbar, "dram": e.DRAM,
		"clock": e.Clock, "leakage": e.Leakage,
	} {
		if v <= 0 {
			t.Errorf("component %s has zero energy", name)
		}
	}
	if e.TotalmJ() <= 0 {
		t.Fatal("total energy zero")
	}
	raw := EstimateRaw(sys.TotalStats(), sys.L1Stats(), sys.Hier.L2.Stats.Requests,
		sys.Hier.Xbar.Transfers(), sys.Hier.DRAM.Accesses, sys.Cycles(), cfg.WPUs,
		cfg.Hier.L1.SizeBytes/1024, cfg.Hier.L2.SizeBytes/(1024*1024))
	if e != raw {
		t.Errorf("Estimate = %+v, EstimateRaw over TotalStats = %+v", e, raw)
	}
}
