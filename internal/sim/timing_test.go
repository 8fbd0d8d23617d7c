package sim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/wpu"
)

// Timing microkernels. Every other timing oracle in the repository is
// relative (digests equal to a parent's, schemes computing the same memory),
// so a change that made every miss ten cycles cheaper would only move
// digests and goldens, with nothing to say whether the new numbers are
// right. These kernels pin the absolute cost of one component each: one
// warp of Width threads on one WPU of the Table 3 machine, and the exact
// cycle count RunKernel returns written as a formula over DefaultConfig's
// fields.
//
// The terms every formula shares: a WPU issues one instruction per cycle, the
// kernel's last instruction (halt) issues in its last cycle, and a fresh
// machine's instruction cache is cold, so the first fetch of each
// ICacheInstPerLine-instruction line stalls issue for the refill,
// 2·XbarLat + L2.LookupLat (a crossbar round trip and one L2 lookup).

// microMachine is the Table 3 machine cut down to the one WPU the kernel
// runs on, under scheme; no latency or geometry differs from DefaultConfig.
func microMachine(t *testing.T, scheme wpu.Scheme) (*System, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WPUs = 1
	cfg.WPU = scheme.Apply(cfg.WPU)
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
	return laneLoad(sys, oneLine(freshLine(sys)))
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

// freshLine allocates one line no launch has touched: cold in the L1 and the
// L2 (AllocWords is line-aligned).
func freshLine(sys *System) uint64 { return sys.Memory().AllocWords(sys.Cfg.WPU.Width) }

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

// dramMiss is a one-line load's wait when it misses in the L1 and the L2
// and finds the memory bus idle: 2·XbarLat + L2.LookupLat + DRAMLat.
func dramMiss(cfg Config) uint64 {
	h := cfg.Hier
	return uint64(2*h.XbarLat + h.L2.LookupLat + h.DRAMLat)
}

// TestMicroICacheColdMiss: ICacheInstPerLine nops and a halt span two icache
// lines, so the kernel pays two cold refills and issues one instruction per
// cycle otherwise.
func TestMicroICacheColdMiss(t *testing.T) {
	sys, cfg := microMachine(t, wpu.SchemeConv)
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
	sys, cfg := microMachine(t, wpu.SchemeConv)
	p, threads := loadOneLine(sys)
	got := runCycles(t, sys, p, threads)
	miss := dramMiss(cfg)
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
	sys, cfg := microMachine(t, wpu.SchemeConv)
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
		sys, cfg := microMachine(t, wpu.SchemeConv)
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

// launchDelta runs p and returns its cycles and the WPU statistics it added.
func launchDelta(t *testing.T, sys *System, p *program.Program, threads []isa.RegFile) (uint64, wpu.Stats) {
	t.Helper()
	before := sys.TotalStats()
	cycles := runCycles(t, sys, p, threads)
	after := sys.TotalStats()
	return cycles, wpu.Stats{
		Issued:             after.Issued - before.Issued,
		BranchSubdivisions: after.BranchSubdivisions - before.BranchSubdivisions,
		MemSubdivisions:    after.MemSubdivisions - before.MemSubdivisions,
		Revivals:           after.Revivals - before.Revivals,
		WaitMerges:         after.WaitMerges - before.WaitMerges,
	}
}

// TestMicroFigure8: the paper's Figure 8. `ld r5, 0(r4); ld r6, 0(r7); halt`
// with lane 0's first load missing to DRAM while lanes 1–15 hit, and the
// second load the other way round: lanes 1–15 miss to DRAM, lane 0 hits.
// The second load is what the run-ahead split gains by running ahead: with
// only a halt left to issue it saves nothing (TestMicroFigure10). A first
// launch with every lane on line A makes A and the instructions resident.
// Write M = dramMiss and ld1 issuing in cycle 0.
//
// Conv: the warp waits for its slowest lane twice. ld2 issues at M, its
// miss returns at 2M, the halt issues then: 1 + 2M cycles.
//
// ReviveSplit: no other SIMD group is ready, so ld1 subdivides at access
// time (§5.2). The run-ahead split (lanes 1–15) is ready at L1.HitLat and
// issues ld2, whose miss starts HitLat after the fall-behind's: it reaches
// the memory bus XbarLat + L2.LookupLat + HitLat, while the first line holds
// the bus until XbarLat + L2.LookupLat + MemBusOcc, so it returns at
// M + max(HitLat, MemBusOcc). The fall-behind (lane 0) is ready at M,
// issues ld2 (a hit, ready at M + HitLat) and wait-merges with the run-ahead
// suspended at the same PC. Lane 0's hit returns first and the stalled
// pipeline revives it (lane 0 halts at M + HitLat); lanes 1–15 issue the
// halt when their miss is back: 1 + M + max(HitLat, MemBusOcc) cycles.
// DWS's saving is the overlapped miss, M − max(HitLat, MemBusOcc).
func TestMicroFigure8(t *testing.T) {
	run := func(scheme wpu.Scheme) (Config, uint64, wpu.Stats) {
		sys, cfg := microMachine(t, scheme)
		a := freshLine(sys)
		b := program.NewBuilder("figure-8")
		b.Ld(5, 4, 0)
		b.Ld(6, 7, 0)
		b.Halt()
		p := b.MustBuild()
		runCycles(t, sys, p, Threads(cfg.WPU.Width, func(tid int, r *isa.RegFile) {
			r.Set(4, int64(oneLine(a)(tid)))
			r.Set(7, int64(oneLine(a)(tid)))
		}))
		first, second := freshLine(sys), freshLine(sys)
		cycles, st := launchDelta(t, sys, p, Threads(cfg.WPU.Width, func(tid int, r *isa.RegFile) {
			if tid == 0 {
				r.Set(4, int64(first))
				r.Set(7, int64(a))
				return
			}
			r.Set(4, int64(oneLine(a)(tid)))
			r.Set(7, int64(oneLine(second)(tid)))
		}))
		return cfg, cycles, st
	}
	cfg, conv, _ := run(wpu.SchemeConv)
	m := dramMiss(cfg)
	if want := 1 + 2*m; conv != want {
		t.Errorf("Conv: %d cycles, want 1 + 2·M = %d", conv, want)
	}
	cfg, dws, st := run(wpu.SchemeRevive)
	h := cfg.Hier
	queued := uint64(max(h.L1.HitLat, h.MemBusOcc))
	if want := 1 + m + queued; dws != want {
		t.Errorf("ReviveSplit: %d cycles, want 1 + M + max(L1.HitLat, MemBusOcc) = %d", dws, want)
	}
	if st.MemSubdivisions != 2 || st.Revivals != 1 || st.WaitMerges != 1 {
		t.Errorf("ReviveSplit: %d subdivisions, %d revivals and %d wait-merges, want 2, 1 and 1",
			st.MemSubdivisions, st.Revivals, st.WaitMerges)
	}
	if saving := conv - dws; saving != m-queued {
		t.Errorf("DWS saves %d cycles, want M − max(L1.HitLat, MemBusOcc) = %d", saving, m-queued)
	}
}

// TestMicroFigure10: the paper's Figure 10, the run-ahead that achieves
// nothing. `ld r5, 0(r4)`, n independent adds and a halt; lane 0's load
// misses to DRAM and lanes 1–15 hit, after a launch that made the line and
// the instructions resident. The run-ahead split issues no further miss: it
// is ready at L1.HitLat and issues its n adds and halt before the
// fall-behind's data returns at M (HitLat + n < M), so the fall-behind then
// issues the same n adds and halt the whole warp issues under Conv. Both
// take 1 + M + n cycles; DWS only spends n + 1 more issue slots
// (2n + 3 instructions issued against n + 2).
func TestMicroFigure10(t *testing.T) {
	const n = 8
	run := func(scheme wpu.Scheme) (Config, uint64, wpu.Stats) {
		sys, cfg := microMachine(t, scheme)
		a := freshLine(sys)
		b := program.NewBuilder("figure-10")
		b.Ld(5, 4, 0)
		for i := 0; i < n; i++ {
			b.Addi(6, 6, 1)
		}
		b.Halt()
		p := b.MustBuild()
		runCycles(t, sys, p, Threads(cfg.WPU.Width, func(tid int, r *isa.RegFile) { r.Set(4, int64(oneLine(a)(tid))) }))
		miss := freshLine(sys)
		cycles, st := launchDelta(t, sys, p, Threads(cfg.WPU.Width, func(tid int, r *isa.RegFile) {
			if tid == 0 {
				r.Set(4, int64(miss))
				return
			}
			r.Set(4, int64(oneLine(a)(tid)))
		}))
		return cfg, cycles, st
	}
	for _, tc := range []struct {
		scheme        wpu.Scheme
		issued, subdv uint64
	}{
		{wpu.SchemeConv, n + 2, 0},
		{wpu.SchemeRevive, 2*n + 3, 1},
	} {
		cfg, cycles, st := run(tc.scheme)
		m := dramMiss(cfg)
		if uint64(cfg.Hier.L1.HitLat)+n >= m {
			t.Fatalf("the run-ahead must finish before the miss returns: HitLat + %d ≥ M = %d", n, m)
		}
		if want := 1 + m + n; cycles != want {
			t.Errorf("%s: %d cycles, want 1 + M + %d = %d", tc.scheme, cycles, n, want)
		}
		if st.Issued != tc.issued || st.MemSubdivisions != tc.subdv {
			t.Errorf("%s: %d instructions issued and %d subdivisions, want %d and %d",
				tc.scheme, st.Issued, st.MemSubdivisions, tc.issued, tc.subdv)
		}
	}
}

// TestMicroShortJoin: a §4.3 short-join divergent branch. Lanes 0–7 take
// the branch to a load that misses to DRAM; lanes 8–15 fall through to n
// adds and a jump to the join, where the halt is. Both arms are short, so
// the branch may subdivide. The slti issues in cycle 0 and the branch in
// cycle 1; the first launch made the instructions resident, and each launch
// loads a line no launch has touched.
//
// Conv: the re-convergence stack runs the taken arm first. Its load issues in
// cycle 2 and returns at 2 + M, when the stack pops to the other arm: n adds,
// the jump, then the halt of the re-joined warp, 4 + M + n cycles.
//
// BranchOnly: no other SIMD group is ready, so the branch subdivides (§4.2).
// Both splits carry the branch's progress count, and the scheduler's
// rotation starts past the slot that issued the branch, at the not-taken
// split's: it issues one add in cycle 2, and least-progressed-first then
// picks the taken split, whose load issues in cycle 3. The not-taken split
// issues the rest of its arm and its halt during the miss; the taken split
// issues its halt when the data returns: 4 + M cycles. The arms overlap:
// the saving is the not-taken arm, n cycles.
func TestMicroShortJoin(t *testing.T) {
	const n = 8
	run := func(scheme wpu.Scheme) (Config, uint64, wpu.Stats) {
		sys, cfg := microMachine(t, scheme)
		b := program.NewBuilder("short-join")
		b.Slti(3, 1, int64(cfg.WPU.Width/2))
		b.Bnez(3, "miss")
		for i := 0; i < n; i++ {
			b.Addi(6, 6, 1)
		}
		b.Jmp("join")
		b.Label("miss")
		b.Ld(5, 4, 0)
		b.Label("join")
		b.Halt()
		p := b.MustBuild()
		threads := func(line uint64) []isa.RegFile {
			return Threads(cfg.WPU.Width, func(tid int, r *isa.RegFile) { r.Set(4, int64(oneLine(line)(tid))) })
		}
		runCycles(t, sys, p, threads(freshLine(sys)))
		cycles, st := launchDelta(t, sys, p, threads(freshLine(sys)))
		return cfg, cycles, st
	}
	cfg, conv, st := run(wpu.SchemeConv)
	m := dramMiss(cfg)
	if want := 4 + m + n; conv != want {
		t.Errorf("Conv: %d cycles, want 4 + M + %d = %d", conv, n, want)
	}
	if st.BranchSubdivisions != 0 {
		t.Errorf("Conv subdivided %d branches", st.BranchSubdivisions)
	}
	cfg, dws, st := run(wpu.SchemeBranchOnly)
	if want := 4 + m; dws != want {
		t.Errorf("BranchOnly: %d cycles, want 4 + M = %d", dws, want)
	}
	if st.BranchSubdivisions != 1 {
		t.Errorf("BranchOnly subdivided %d branches, want 1", st.BranchSubdivisions)
	}
	if saving := conv - dws; saving != n {
		t.Errorf("DWS saves %d cycles, want n = %d", saving, n)
	}
}
