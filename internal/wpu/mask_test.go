package wpu

import (
	"reflect"
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

// TestStatsAddCoversAllFields adds, for each field of Stats in turn, a
// Stats holding only that field into an aggregate holding only that field,
// and requires the whole aggregate to come out as the field's kind says:
// uint64 counters sum, the [4]uint64 class arrays sum element by element,
// the int high-water mark (PeakSplits) takes the max, and ThreadMisses rows
// are appended as copies. A field Add forgets, adds into the wrong place,
// or of a kind this test does not know fails here.
func TestStatsAddCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var agg, o, want Stats
		av := reflect.ValueOf(&agg).Elem().Field(i)
		ov := reflect.ValueOf(&o).Elem().Field(i)
		wv := reflect.ValueOf(&want).Elem().Field(i)
		switch {
		case f.Type.Kind() == reflect.Uint64:
			av.SetUint(5)
			ov.SetUint(7)
			wv.SetUint(12)
		case f.Type == reflect.TypeOf([4]uint64{}):
			for j := 0; j < 4; j++ {
				av.Index(j).SetUint(uint64(j + 1))
				ov.Index(j).SetUint(uint64(10 * (j + 1)))
				wv.Index(j).SetUint(uint64(11 * (j + 1)))
			}
		case f.Type.Kind() == reflect.Int:
			av.SetInt(3)
			ov.SetInt(5)
			wv.SetInt(5)
		case f.Type == reflect.TypeOf([][]uint64{}):
			av.Set(reflect.ValueOf([][]uint64{{1}}))
			ov.Set(reflect.ValueOf([][]uint64{{2, 3}, {4}}))
			wv.Set(reflect.ValueOf([][]uint64{{1}, {2, 3}, {4}}))
		default:
			t.Fatalf("field %s has type %s, which Add does not aggregate", f.Name, f.Type)
		}
		agg.Add(&o)
		if !reflect.DeepEqual(agg, want) {
			t.Errorf("Add on field %s:\n got  %+v\n want %+v", f.Name, agg, want)
		}
	}

	// A high-water mark never falls, and appended rows do not alias the
	// addend's.
	agg := Stats{PeakSplits: 9}
	o := Stats{PeakSplits: 4, ThreadMisses: [][]uint64{{2, 3}}}
	agg.Add(&o)
	if agg.PeakSplits != 9 {
		t.Errorf("PeakSplits = %d after adding a smaller peak, want 9", agg.PeakSplits)
	}
	o.ThreadMisses[0][0] = 99
	if agg.ThreadMisses[0][0] != 2 {
		t.Errorf("ThreadMisses row aliases the addend's: %v", agg.ThreadMisses)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Issued: 4, ThreadOps: 40, TickCycles: 100, BusyCycles: 25,
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
