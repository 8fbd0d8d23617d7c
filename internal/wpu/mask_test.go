package wpu

import (
	"testing"
	"testing/quick"
)

func TestFullMask(t *testing.T) {
	if FullMask(4) != 0xF {
		t.Fatalf("FullMask(4) = %#x", uint64(FullMask(4)))
	}
	if FullMask(64) != ^Mask(0) {
		t.Fatal("FullMask(64) should be all ones")
	}
	if FullMask(1) != 1 {
		t.Fatal("FullMask(1) wrong")
	}
}

func TestMaskOps(t *testing.T) {
	m := LaneMask(3) | LaneMask(7)
	if m.Count() != 2 {
		t.Fatalf("Count = %d", m.Count())
	}
	if !m.Has(3) || !m.Has(7) || m.Has(0) {
		t.Fatal("Has misreports")
	}
	if m.Empty() || !Mask(0).Empty() {
		t.Fatal("Empty misreports")
	}
	var lanes []int
	m.Lanes(func(l int) { lanes = append(lanes, l) })
	if len(lanes) != 2 || lanes[0] != 3 || lanes[1] != 7 {
		t.Fatalf("Lanes = %v", lanes)
	}
}

func TestPropertyMaskLanesMatchesCount(t *testing.T) {
	f := func(v uint64) bool {
		m := Mask(v)
		n := 0
		m.Lanes(func(l int) {
			if !m.Has(l) {
				t.Fatalf("lane %d reported but not set", l)
			}
			n++
		})
		return n == m.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{Warps: 4, Width: 16}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Warps: 0, Width: 16},
		{Warps: 4, Width: 0},
		{Warps: 4, Width: 128},
		{Warps: 4, Width: 16, SchedSlots: 65},
		{Warps: 33, Width: 16}, // default 2x warps = 66 slots
		{Warps: 4, Width: 16, Slip: SlipOn, MemScheme: ReviveSplit},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Warps: 4, Width: 16}.withDefaults()
	if c.SchedSlots != 8 {
		t.Fatalf("SchedSlots = %d, want 8 (2x warps)", c.SchedSlots)
	}
	if c.WSTEntries != 16 {
		t.Fatalf("WSTEntries = %d, want 16", c.WSTEntries)
	}
	if slipInterval != 100000 || slipRaise != 0.70 || slipLower != 0.50 {
		t.Fatal("slip constants are not the paper's (§5.7)")
	}
}

func TestSchemesApply(t *testing.T) {
	base := Config{Warps: 4, Width: 16}
	cases := []struct {
		s      Scheme
		branch bool
		pc     bool
		mem    MemScheme
		rec    MemReconv
		slip   SlipMode
	}{
		{SchemeConv, false, false, MemNone, BranchBypass, SlipOff},
		{SchemeBranchOnlyStack, true, false, MemNone, BranchBypass, SlipOff},
		{SchemeBranchOnly, true, true, MemNone, BranchBypass, SlipOff},
		{SchemeAggressBL, false, true, AggressSplit, BranchLimited, SlipOff},
		{SchemeLazyBL, false, true, LazySplit, BranchLimited, SlipOff},
		{SchemeReviveBL, false, true, ReviveSplit, BranchLimited, SlipOff},
		{SchemeReviveMemOnly, false, true, ReviveSplit, BranchBypass, SlipOff},
		{SchemeAggress, true, true, AggressSplit, BranchBypass, SlipOff},
		{SchemeLazy, true, true, LazySplit, BranchBypass, SlipOff},
		{SchemeRevive, true, true, ReviveSplit, BranchBypass, SlipOff},
		{SchemeSlip, false, false, MemNone, BranchBypass, SlipOn},
		{SchemeSlipBranchBypass, true, true, MemNone, BranchBypass, SlipBranchBypass},
	}
	for _, c := range cases {
		got := c.s.Apply(base)
		if got.SubdivideOnBranch != c.branch || got.PCReconv != c.pc ||
			got.MemScheme != c.mem || got.MemReconv != c.rec || got.Slip != c.slip {
			t.Errorf("%s applied wrong: %+v", c.s, got)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", c.s, err)
		}
	}
}

func TestAllSchemesListed(t *testing.T) {
	if len(AllSchemes) != 12 {
		t.Fatalf("AllSchemes has %d entries, want 12", len(AllSchemes))
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{TickCycles: 18, BusyCycles: 10, StallMemCoherent: 3,
		StallMemDivergent: 2, StallBarrier: 3, Issued: 7, PeakSplits: 3}
	b := Stats{TickCycles: 3, BusyCycles: 1, StallICache: 1, StallWSTFull: 1,
		StallSlotWait: 1, IdleNoLiveWarp: 1, Issued: 3, PeakSplits: 5}
	a.Add(&b)
	if a.BusyCycles != 11 || a.MemStallCycles() != 5 || a.StallOtherCycles() != 7 {
		t.Fatalf("cycle sums wrong: %+v", a)
	}
	if a.Issued != 10 || a.PeakSplits != 5 {
		t.Fatalf("Issued/PeakSplits wrong: %+v", a)
	}
	if a.Cycles() != 21 {
		t.Fatalf("Cycles = %d, want 21", a.Cycles())
	}
	if a.StallSum() != 23 {
		t.Fatalf("StallSum = %d, want 23", a.StallSum())
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Issued: 4, WidthAccum: 40, TickCycles: 100, BusyCycles: 25,
		StallMemCoherent: 50, StallMemDivergent: 25}
	if s.MeanSIMDWidth() != 10 {
		t.Fatalf("MeanSIMDWidth = %g", s.MeanSIMDWidth())
	}
	if s.MemStallFraction() != 0.75 {
		t.Fatalf("MemStallFraction = %g", s.MemStallFraction())
	}
	if s.StallSum() != s.Cycles() {
		t.Fatalf("StallSum %d != Cycles %d", s.StallSum(), s.Cycles())
	}
	var zero Stats
	if zero.MeanSIMDWidth() != 0 || zero.MemStallFraction() != 0 {
		t.Fatal("zero stats should yield zero derived values")
	}
}
