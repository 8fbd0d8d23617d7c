// Package energy implements the paper's §3.3 energy model in the style of
// Cacti 4.2 + Wattch at 65 nm: per-event dynamic energies for the pipeline
// (fetch/decode, integer and floating-point ALUs, register files, result
// bus), the caches, the crossbar and DRAM, plus per-cycle clock and leakage
// power. At 65 nm leakage is a significant, runtime-proportional component
// — which is exactly why the paper finds DWS's ≈1.7× speedup translating
// into ≈30 % energy savings (§6.5).
//
// Coefficients are plausible 65 nm values; the paper's conclusions depend
// on their relative magnitudes (DRAM ≫ L2 ≫ L1 ≫ ALU, leakage ∝ time),
// which are preserved.
package energy

import (
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/wpu"
)

// Per-event dynamic energies, in nanojoules.
const (
	FetchDecodeNJ = 0.040 // I-cache read + decode per issued instruction
	IntOpNJ       = 0.020 // integer ALU per thread operation
	FloatOpNJ     = 0.060 // FPU surcharge per floating thread operation
	RegFileNJ     = 0.015 // 2 reads + 1 write per thread operation
	ResultBusNJ   = 0.010 // per issued instruction
	L1AccessNJ    = 0.060 // per D-cache line access (32 KB, 8-way)
	L2AccessNJ    = 0.400 // per shared-cache access (4 MB, 16-way)
	XbarNJ        = 0.150 // per crossbar transfer (Pullini et al. [24])
	DRAMNJ        = 220.0 // per memory access (Hur & Lin [13], as in §3.3)

	// Per-cycle power, in nanojoules per cycle (= watts at 1 GHz).
	ClockPerWPUNJ  = 0.150 // clock tree per active WPU
	LeakPerWPUNJ   = 0.200 // WPU pipeline + L1 leakage
	LeakL2NJ       = 1.000 // 4 MB L2 leakage
	LeakPerWPUKBNJ = 0.004 // additional leakage per KB of private cache
	LeakL2PerMBNJ  = 0.250 // scaling for non-default L2 sizes
	defaultL1KB    = program.L1SizeBytes >> 10
	defaultL2MB    = program.L2SizeBytes >> 20
)

// Breakdown is the estimated energy by component, in nanojoules.
type Breakdown struct {
	Fetch   float64
	ALU     float64
	RegFile float64
	Bus     float64
	L1      float64
	L2      float64
	Xbar    float64
	DRAM    float64
	Clock   float64
	Leakage float64
}

// Total returns the summed energy in nanojoules.
func (b Breakdown) Total() float64 {
	return b.Fetch + b.ALU + b.RegFile + b.Bus + b.L1 + b.L2 + b.Xbar + b.DRAM + b.Clock + b.Leakage
}

// TotalmJ returns the summed energy in millijoules.
func (b Breakdown) TotalmJ() float64 { return b.Total() / 1e6 }

// DynamicmJ returns the event-driven (non-leakage, non-clock) energy in mJ.
func (b Breakdown) DynamicmJ() float64 {
	return (b.Total() - b.Clock - b.Leakage) / 1e6
}

// LeakagemJ returns clock + leakage energy in mJ (the runtime-proportional
// component DWS shrinks).
func (b Breakdown) LeakagemJ() float64 { return (b.Clock + b.Leakage) / 1e6 }

// EstimateRaw computes the breakdown from raw counters.
func EstimateRaw(st wpu.Stats, l1 mem.L1Stats, l2Requests, xbarTransfers, dramAccesses, cycles uint64, numWPUs, l1KB, l2MB int) Breakdown {
	var b Breakdown
	b.Fetch = FetchDecodeNJ * float64(st.Issued)
	b.ALU = IntOpNJ*float64(st.ThreadOps) + FloatOpNJ*float64(st.FloatOps)
	b.RegFile = RegFileNJ * float64(st.ThreadOps)
	b.Bus = ResultBusNJ * float64(st.Issued)
	b.L1 = L1AccessNJ * float64(l1.Accesses)
	b.L2 = L2AccessNJ * float64(l2Requests)
	b.Xbar = XbarNJ * float64(xbarTransfers)
	b.DRAM = DRAMNJ * float64(dramAccesses)
	b.Clock = ClockPerWPUNJ * float64(numWPUs) * float64(cycles)
	perWPULeak := LeakPerWPUNJ + LeakPerWPUKBNJ*float64(l1KB-defaultL1KB)
	if perWPULeak < 0.05 {
		perWPULeak = 0.05
	}
	l2Leak := LeakL2NJ + LeakL2PerMBNJ*float64(l2MB-defaultL2MB)
	if l2Leak < 0.1 {
		l2Leak = 0.1
	}
	b.Leakage = (perWPULeak*float64(numWPUs) + l2Leak) * float64(cycles)
	return b
}

// Estimate computes the breakdown for a finished system run.
func Estimate(sys *sim.System) Breakdown {
	// EstimateRaw reads three WPU counters: sum those, not every field
	// TotalStats copies.
	var st wpu.Stats
	for _, w := range sys.WPUs {
		st.Issued += w.Stats.Issued
		st.ThreadOps += w.Stats.ThreadOps
		st.FloatOps += w.Stats.FloatOps
	}
	return EstimateRaw(
		st,
		sys.L1Stats(),
		sys.Hier.L2.Stats.Requests,
		sys.Hier.Xbar.Transfers(),
		sys.Hier.DRAM.Accesses,
		sys.Cycles(),
		sys.Cfg.WPUs,
		sys.Cfg.Hier.L1.SizeBytes/1024,
		sys.Cfg.Hier.L2.SizeBytes/(1024*1024),
	)
}
