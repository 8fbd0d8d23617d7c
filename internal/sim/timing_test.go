package sim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/program"
)

// Timing microkernels. Every other timing oracle in the repository is
// relative (digests equal to a parent's, schemes computing the same memory,
// cycles inside sound static bounds), so a change that made every miss ten
// cycles cheaper would only move digests and goldens, with nothing to say
// whether the new numbers are right. These kernels pin the absolute cost of
// one component each: one warp of Width threads on one WPU of the Table 3
// machine, and the exact cycle count RunKernel returns written as a formula
// over DefaultConfig's fields, the way CostParamsFor composes MemTxWorst.
//
// The terms every formula shares: a WPU issues one instruction per cycle, the
// kernel's last instruction (halt) issues in its last cycle, and a fresh
// machine's instruction cache is cold, so the first fetch of each
// ICacheInstPerLine-instruction line stalls issue for the refill,
// 2·XbarLat + L2.LookupLat (a crossbar round trip and one L2 lookup).

// microMachine is the Table 3 machine cut down to the one WPU the kernel
// runs on; no latency or geometry differs from DefaultConfig.
func microMachine(t *testing.T) (*System, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WPUs = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cfg
}

// loadOneLine builds `ld r5, 0(r4); halt` and one warp whose r4 holds
// consecutive words of one freshly allocated, line-aligned buffer: the load
// is one line transaction.
func loadOneLine(sys *System) (*program.Program, []isa.RegFile) {
	return laneLoad(sys, oneLine(sys.Memory().AllocWords(sys.Cfg.WPU.Width)))
}

// laneLoad builds the same kernel with lane i of the one warp loading
// addr(i). Every laneLoad and loadOneLine program is one program (Build is
// memoized), so after the first launch its instructions are resident.
func laneLoad(sys *System, addr func(lane int) uint64) (*program.Program, []isa.RegFile) {
	b := program.NewBuilder("load-one-line")
	b.Ld(5, 4, 0)
	b.Halt()
	return b.MustBuild(), Threads(sys.Cfg.WPU.Width, func(tid int, r *isa.RegFile) {
		r.Set(4, int64(addr(tid)))
	})
}

// runLoad launches laneLoad's kernel and returns its cycles.
func runLoad(t *testing.T, sys *System, addr func(lane int) uint64) uint64 {
	t.Helper()
	p, threads := laneLoad(sys, addr)
	return runCycles(t, sys, p, threads)
}

// oneLine is the addr of a load whose lane i reads word i of line: one line
// transaction.
func oneLine(line uint64) func(lane int) uint64 {
	return func(lane int) uint64 { return line + uint64(lane)*isa.WordSize }
}

func runCycles(t *testing.T, sys *System, p *program.Program, threads []isa.RegFile) uint64 {
	t.Helper()
	cycles, err := sys.RunKernel(p, threads)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func iMiss(cfg Config) uint64 {
	return uint64(2*cfg.Hier.XbarLat + cfg.Hier.L2.LookupLat)
}

// TestMicroICacheColdMiss: ICacheInstPerLine nops and a halt span two icache
// lines, so the kernel pays two cold refills and issues one instruction per
// cycle otherwise.
func TestMicroICacheColdMiss(t *testing.T) {
	sys, cfg := microMachine(t)
	b := program.NewBuilder("two-icache-lines")
	for i := 0; i < program.ICacheInstPerLine; i++ {
		b.Nop()
	}
	b.Halt()
	p := b.MustBuild()
	got := runCycles(t, sys, p, Threads(cfg.WPU.Width, nil))
	want := 2*iMiss(cfg) + uint64(program.ICacheInstPerLine+1)
	if got != want {
		t.Errorf("two cold icache lines: %d cycles, want 2·(2·XbarLat+L2.LookupLat) + %d = %d",
			got, program.ICacheInstPerLine+1, want)
	}
	// A second launch of the same program finds both lines resident.
	if got := runCycles(t, sys, p, Threads(cfg.WPU.Width, nil)); got != uint64(program.ICacheInstPerLine+1) {
		t.Errorf("warm icache: %d cycles, want %d", got, program.ICacheInstPerLine+1)
	}
}

// TestMicroDRAMMiss: a one-line load on a cold machine misses in the L1 and
// the L2. The request crosses the crossbar (XbarLat), waits one L2 lookup,
// finds the memory bus idle (its occupancy delays only a second transfer),
// pays the DRAM latency, and the fill crosses the crossbar back; the halt
// issues in the cycle the data arrives.
func TestMicroDRAMMiss(t *testing.T) {
	sys, cfg := microMachine(t)
	p, threads := loadOneLine(sys)
	got := runCycles(t, sys, p, threads)
	h := cfg.Hier
	miss := uint64(2*h.XbarLat + h.L2.LookupLat + h.DRAMLat)
	want := iMiss(cfg) + 1 + miss
	if got != want {
		t.Errorf("L1+L2 miss to DRAM: %d cycles, want icache refill %d + ld 1 + (2·XbarLat+L2.LookupLat+DRAMLat) %d = %d",
			got, iMiss(cfg), miss, want)
	}
	if st := sys.L1Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("L1 saw %d misses and %d hits, want one miss", st.Misses, st.Hits)
	}
	if n := sys.Hier.DRAM.Accesses; n != 1 {
		t.Errorf("DRAM saw %d accesses, want 1", n)
	}
}

// TestMicroAllHitLoad: the same load launched again on the same machine finds
// its line and its instructions resident: it waits the L1 hit latency and the
// halt issues in the cycle the data is ready.
func TestMicroAllHitLoad(t *testing.T) {
	sys, cfg := microMachine(t)
	p, threads := loadOneLine(sys)
	runCycles(t, sys, p, threads) // warm the L1 and the icache
	before := sys.L1Stats()
	got := runCycles(t, sys, p, threads)
	want := uint64(cfg.Hier.L1.HitLat) + 1
	if got != want {
		t.Errorf("all-hit load: %d cycles, want L1.HitLat + 1 = %d", got, want)
	}
	if st := sys.L1Stats(); st.Hits-before.Hits != 1 || st.Misses != before.Misses {
		t.Errorf("second launch: %d hits and %d misses, want one hit", st.Hits-before.Hits, st.Misses-before.Misses)
	}
}

// TestMicroL2Hit: a one-line load that misses in the L1 and hits in the L2.
// A first load brings the line into both caches; L1.Ways more lines that map
// to the same L1 set (L1 sets = SizeBytes / (LineSize·Ways) apart) evict it
// from the L1 but not from the L2, which is inclusive and much larger. The
// measured load then crosses the crossbar, waits one L2 lookup and crosses
// back; the instructions are resident and the halt issues in the cycle the
// data arrives. Figure 16's axis moves exactly the lookup term.
func TestMicroL2Hit(t *testing.T) {
	for _, lat := range []engine.Cycle{30, 100} {
		cfg := DefaultConfig()
		cfg.WPUs = 1
		cfg.Hier.L2.LookupLat = lat
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l1 := cfg.Hier.L1
		setStride := uint64(l1.SizeBytes / l1.Ways) // the bytes between lines of one L1 set
		buf := sys.Memory().AllocWords(int(setStride) * (l1.Ways + 1) / isa.WordSize)
		for j := 0; j <= l1.Ways; j++ {
			runLoad(t, sys, oneLine(buf+uint64(j)*setStride)) // j = 0 first, the others evict it
		}
		l1Before, l2Before, dram := sys.L1Stats(), sys.L2Stats(), sys.Hier.DRAM.Accesses
		got := runLoad(t, sys, oneLine(buf))
		h := cfg.Hier
		want := 1 + uint64(2*h.XbarLat+h.L2.LookupLat)
		if got != want {
			t.Errorf("l2lat %d: L1 miss served by the L2: %d cycles, want ld 1 + (2·XbarLat+L2.LookupLat) = %d", lat, got, want)
		}
		if l1n, l2n := sys.L1Stats(), sys.L2Stats(); l1n.Misses-l1Before.Misses != 1 || l2n.Hits-l2Before.Hits != 1 ||
			sys.Hier.DRAM.Accesses != dram {
			t.Errorf("l2lat %d: %d L1 misses, %d L2 hits and %d DRAM accesses, want 1, 1 and 0", lat,
				l1n.Misses-l1Before.Misses, l2n.Hits-l2Before.Hits, sys.Hier.DRAM.Accesses-dram)
		}
	}
}

// TestMicroBankSpread: one 16-lane load over k lines on k different banks
// (consecutive lines: banks are line-interleaved), all resident. Each bank
// takes one access per cycle, so the k hits start together and the load
// costs what one line does, L1.HitLat + 1, for every k up to L1.Banks.
func TestMicroBankSpread(t *testing.T) {
	microBanks(t, "k banks", 1, func(cfg Config, k int) (uint64, uint64) { return uint64(cfg.Hier.L1.HitLat) + 1, 0 })
}

// TestMicroBankConflict: the same load over k lines that all map to one bank
// (L1.Banks lines apart). The bank takes the k hits one cycle after another,
// so the last is ready k−1 cycles after the first, L1.HitLat + k, and each
// hit but the first counts a bank conflict.
func TestMicroBankConflict(t *testing.T) {
	microBanks(t, "one bank", -1, func(cfg Config, k int) (uint64, uint64) {
		return uint64(cfg.Hier.L1.HitLat) + uint64(k), uint64(k - 1)
	})
}

// microBanks runs a 16-lane load over k = 1, 2, 4, …, L1.Banks lines, lane i
// loading line i mod k; the lines are stride lines apart (-1: L1.Banks). The
// first launch brings lines and instructions in, the second is measured
// against want: its cycles and the bank conflicts it counts.
func microBanks(t *testing.T, name string, stride int, want func(Config, int) (cycles, conflicts uint64)) {
	t.Helper()
	banks := DefaultConfig().Hier.L1.Banks
	if stride < 0 {
		stride = banks
	}
	for k := 1; k <= banks; k *= 2 {
		sys, cfg := microMachine(t)
		step := uint64(stride) * cfg.Hier.L1.LineSize
		buf := sys.Memory().AllocWords(k * int(step) / isa.WordSize)
		addr := func(lane int) uint64 { return buf + uint64(lane%k)*step + uint64(lane/k)*isa.WordSize }
		runLoad(t, sys, addr)
		before := sys.L1Stats()
		got := runLoad(t, sys, addr)
		cycles, conflicts := want(cfg, k)
		if got != cycles {
			t.Errorf("%s, %d lines: %d cycles, want %d", name, k, got, cycles)
		}
		st := sys.L1Stats()
		if st.Hits-before.Hits != uint64(k) || st.Misses != before.Misses || st.BankConflicts-before.BankConflicts != conflicts {
			t.Errorf("%s, %d lines: %d hits, %d misses and %d bank conflicts, want %d, 0 and %d", name, k,
				st.Hits-before.Hits, st.Misses-before.Misses, st.BankConflicts-before.BankConflicts, k, conflicts)
		}
	}
}
