package wpu

import "slices"

// Stats aggregates everything one WPU observes during a kernel; the
// experiment harness derives the paper's tables and figures from these
// counters plus the cache statistics.
type Stats struct {
	// Top-down cycle accounting. TickCycles counts every cycle the WPU was
	// live (ticked before completion), and each such cycle lands in exactly
	// one of the buckets below, so
	//
	//	BusyCycles + StallMemCoherent + StallMemDivergent + StallBarrier
	//	  + StallICache + StallWSTFull + StallSlotWait + IdleNoLiveWarp
	//	  == TickCycles
	//
	// holds as a hard invariant (enforced by TestStallTaxonomySums). The
	// stall ladder is priority-ordered in WPU.stallCycle; see DESIGN.md
	// ("Top-down cycle accounting") for the category → paper-mechanism map.
	TickCycles        uint64 // cycles the WPU was live (the taxonomy total)
	BusyCycles        uint64 // issued an instruction
	StallMemCoherent  uint64 // all stalled groups wait on fully-missed accesses
	StallMemDivergent uint64 // some stalled group waits on a divergent access (part hit, part missed)
	StallBarrier      uint64 // nothing runnable; threads parked at a barrier
	StallICache       uint64 // front end stalled on an instruction-cache refill
	StallWSTFull      uint64 // a subdivision/revival was refused this cycle: WST full
	StallSlotWait     uint64 // a runnable split exists but waits for a scheduler slot
	IdleNoLiveWarp    uint64 // no live work at all (residual; ~0 in practice)

	// Instruction accounting.
	Issued       uint64 // SIMD instructions issued
	ThreadOps    uint64 // per-thread operations (sum of active-mask widths)
	FloatOps     uint64
	IFetchMisses uint64 // cold instruction-cache fetches (stall the front end)
	Branches     uint64 // conditional branches executed
	DivBranch    uint64 // ... that diverged

	// Memory divergence (per SIMD memory instruction).
	MemAccesses  uint64 // SIMD memory instructions touching the D-cache
	MemWithMiss  uint64 // ... where at least one thread missed
	MemDivergent uint64 // ... where some threads hit and some missed

	// Static access-class concordance: dynamic SIMD accesses and their
	// coalesced line transactions bucketed by the decoded 2-bit static
	// class (program.AccessClass order: uniform, coalesced, strided,
	// gather). Transactions/Accesses per class is the observed
	// transactions-per-access the precision table in EXPERIMENTS.md
	// confronts with the static worst-case bound.
	MemClassAccesses     [4]uint64
	MemClassTransactions [4]uint64
	// MemBoundExceeded counts accesses whose observed line transactions
	// exceeded the static worst-case bound — an analysis soundness
	// violation. Counted only on traced runs (the bounds are derived at
	// Launch when tracing is on); always zero unless the analysis is
	// broken.
	MemBoundExceeded uint64

	// DWS mechanics.
	BranchSubdivisions uint64
	MemSubdivisions    uint64
	Revivals           uint64
	PCMerges           uint64 // PC-based re-convergence events
	WaitMerges         uint64 // suspended groups re-united at the same PC
	ScopeMerges        uint64 // stack-based (sync-scope) re-convergence events
	WSTFullRefusals    uint64 // subdivisions refused because the table was full
	SlotWaits          uint64 // splits that had to wait for a scheduler slot
	PeakSplits         int    // high-water mark of live scheduling entities

	// Slip mechanics.
	SlipEvents  uint64
	SlipMerges  uint64
	SlipRefused uint64 // divergence beyond the adaptive cap

	// Per-thread miss counts for Figure 14, indexed [warp][lane]: misses by
	// this thread on accesses where it stalled (part of) its SIMD group.
	ThreadMisses [][]uint64
}

// Cycles returns the total simulated cycles this WPU was live.
func (s *Stats) Cycles() uint64 {
	return s.TickCycles
}

// CycleBucketLabels names the eight taxonomy buckets in canonical
// presentation order. Every consumer of the breakdown — the Prometheus
// exposition, the stall exhibit, CSV headers — renders the buckets in
// this order so the outputs line up column for column.
var CycleBucketLabels = [8]string{
	"busy",
	"mem_coherent",
	"mem_divergent",
	"barrier",
	"icache",
	"wst_full",
	"slot_wait",
	"idle",
}

// CycleBuckets returns the taxonomy counters in CycleBucketLabels
// order; their sum equals Cycles() by the accounting invariant.
func (s *Stats) CycleBuckets() [8]uint64 {
	return [8]uint64{
		s.BusyCycles,
		s.StallMemCoherent,
		s.StallMemDivergent,
		s.StallBarrier,
		s.StallICache,
		s.StallWSTFull,
		s.StallSlotWait,
		s.IdleNoLiveWarp,
	}
}

// MemStallCycles returns the cycles stalled on memory: the sum of the
// coherent and divergent sub-buckets (the timeline sampler's rollup).
func (s *Stats) MemStallCycles() uint64 {
	return s.StallMemCoherent + s.StallMemDivergent
}

// StallOtherCycles returns the non-memory stall cycles (the timeline
// sampler's rollup over the finer-grained buckets).
func (s *Stats) StallOtherCycles() uint64 {
	return s.StallBarrier + s.StallICache + s.StallWSTFull + s.StallSlotWait + s.IdleNoLiveWarp
}

// StallSum adds up every taxonomy bucket; equal to Cycles() by the
// accounting invariant.
func (s *Stats) StallSum() uint64 {
	return s.BusyCycles + s.MemStallCycles() + s.StallOtherCycles()
}

// MeanSIMDWidth returns the average active width per issued instruction
// (the paper reports 14 → 4 under DWS.ReviveSplit, §5.5).
func (s *Stats) MeanSIMDWidth() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.ThreadOps) / float64(s.Issued)
}

// MemStallFraction returns the fraction of cycles stalled on memory (the
// paper reports 76 % → 36 %, §5.5) — by definition the sum of the two
// memory sub-buckets over the total.
func (s *Stats) MemStallFraction() float64 {
	c := s.Cycles()
	if c == 0 {
		return 0
	}
	return float64(s.MemStallCycles()) / float64(c)
}

// Add accumulates o into s (for summing across WPUs).
func (s *Stats) Add(o *Stats) {
	s.TickCycles += o.TickCycles
	s.BusyCycles += o.BusyCycles
	s.StallMemCoherent += o.StallMemCoherent
	s.StallMemDivergent += o.StallMemDivergent
	s.StallBarrier += o.StallBarrier
	s.StallICache += o.StallICache
	s.StallWSTFull += o.StallWSTFull
	s.StallSlotWait += o.StallSlotWait
	s.IdleNoLiveWarp += o.IdleNoLiveWarp
	s.Issued += o.Issued
	s.ThreadOps += o.ThreadOps
	s.FloatOps += o.FloatOps
	s.IFetchMisses += o.IFetchMisses
	s.Branches += o.Branches
	s.DivBranch += o.DivBranch
	s.MemAccesses += o.MemAccesses
	s.MemWithMiss += o.MemWithMiss
	s.MemDivergent += o.MemDivergent
	for i := range s.MemClassAccesses {
		s.MemClassAccesses[i] += o.MemClassAccesses[i]
		s.MemClassTransactions[i] += o.MemClassTransactions[i]
	}
	s.MemBoundExceeded += o.MemBoundExceeded
	s.BranchSubdivisions += o.BranchSubdivisions
	s.MemSubdivisions += o.MemSubdivisions
	s.Revivals += o.Revivals
	s.PCMerges += o.PCMerges
	s.WaitMerges += o.WaitMerges
	s.ScopeMerges += o.ScopeMerges
	s.WSTFullRefusals += o.WSTFullRefusals
	s.SlotWaits += o.SlotWaits
	if o.PeakSplits > s.PeakSplits {
		s.PeakSplits = o.PeakSplits
	}
	// o's rows are copied into one backing array: an allocation per Add,
	// not one per warp.
	cells := 0
	for _, row := range o.ThreadMisses {
		cells += len(row)
	}
	flat := make([]uint64, 0, cells)
	s.ThreadMisses = slices.Grow(s.ThreadMisses, len(o.ThreadMisses))
	for _, row := range o.ThreadMisses {
		flat = append(flat, row...)
		s.ThreadMisses = append(s.ThreadMisses, flat[len(flat)-len(row):len(flat):len(flat)])
	}
	s.SlipEvents += o.SlipEvents
	s.SlipMerges += o.SlipMerges
	s.SlipRefused += o.SlipRefused
}
