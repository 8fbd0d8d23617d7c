package wpu

import "fmt"

// MemScheme selects when a warp subdivides upon memory divergence (§5.2).
type MemScheme uint8

const (
	// MemNone disables subdivision on memory divergence: the whole SIMD
	// group waits for its slowest thread (the conventional behaviour).
	MemNone MemScheme = iota
	// AggressSplit subdivides on every memory divergence.
	AggressSplit
	// LazySplit subdivides only when no other SIMD group on the WPU is
	// ready to issue.
	LazySplit
	// ReviveSplit extends LazySplit: when the pipeline stalls, one
	// suspended SIMD group whose outstanding requests have partially
	// completed is subdivided so the satisfied threads can run ahead.
	ReviveSplit
	// PredictiveSplit extends ReviveSplit with the paper's §8 future-work
	// idea: a per-PC miss-history predictor estimates whether a run-ahead
	// split will issue another long-latency request before its fall-behind
	// sibling resumes (the Figure 10 failure case), and vetoes subdivision
	// when past run-aheads at this PC achieved nothing.
	PredictiveSplit
)

func (s MemScheme) String() string {
	switch s {
	case MemNone:
		return "none"
	case AggressSplit:
		return "aggress"
	case LazySplit:
		return "lazy"
	case ReviveSplit:
		return "revive"
	case PredictiveSplit:
		return "predictive"
	}
	return "?"
}

// MemReconv selects how memory-divergence warp-splits behave at branches
// (§5.3).
type MemReconv uint8

const (
	// BranchLimited forces warp-splits born of memory divergence to stall
	// and re-merge at the next conditional branch or post-dominator, keeping
	// the re-convergence stack authoritative (§5.3.1).
	BranchLimited MemReconv = iota
	// BranchBypass lets run-ahead warp-splits pass branches (subdividing
	// further on divergent ones) and loop boundaries, re-converging via the
	// PC-based mechanism (§5.3.2).
	BranchBypass
)

func (r MemReconv) String() string {
	if r == BranchLimited {
		return "branch-limited"
	}
	return "branch-bypass"
}

// SlipMode selects the adaptive-slip baseline (§5.7) instead of DWS memory
// subdivision.
type SlipMode uint8

const (
	// SlipOff disables adaptive slip.
	SlipOff SlipMode = iota
	// SlipOn is Tarjan et al.'s adaptive slip without branch predication:
	// run-ahead threads stall at conditional branches.
	SlipOn
	// SlipBranchBypass combines slip with DWS branch subdivision so
	// run-ahead threads can slip past branches into later iterations.
	SlipBranchBypass
)

func (s SlipMode) String() string {
	switch s {
	case SlipOff:
		return "off"
	case SlipOn:
		return "slip"
	case SlipBranchBypass:
		return "slip-bb"
	}
	return "?"
}

// Config describes one WPU's microarchitecture and DWS policy.
type Config struct {
	// Warps and Width give the multi-threading depth and SIMD width
	// (Table 3: 4 warps × 16 lanes = 64 thread contexts).
	Warps int
	Width int

	// SchedSlots bounds how many SIMD groups the scheduler tracks at once
	// (§5.6 doubles a conventional scheduler: 2×Warps). 0 means 2×Warps;
	// at most 64 either way (the scheduler's ready mask is one word).
	SchedSlots int
	// WSTEntries bounds the total number of scheduling entities (full warps
	// count as root warp-splits). Subdivision is refused when the table is
	// full. 0 means 16 (§5.6).
	WSTEntries int

	// SubdivideOnBranch enables DWS upon branch divergence (§4) at branches
	// the compiler marked subdividable.
	SubdivideOnBranch bool
	// BranchLazyThreshold gates branch subdivision on need: a divergent
	// subdividable branch subdivides only when fewer than this many other
	// SIMD groups are ready to issue (the pipeline is about to run dry).
	// 0 selects the default of 2.
	BranchLazyThreshold int
	// PCReconv enables PC-based re-convergence (§4.5): ready sibling
	// warp-splits at the same PC re-unite. Without it only stack-based
	// re-convergence applies.
	PCReconv bool
	// MemScheme enables DWS upon memory divergence (§5).
	MemScheme MemScheme
	// MemReconv selects BranchLimited or BranchBypass behaviour for
	// memory-divergence splits.
	MemReconv MemReconv
	// Slip selects the adaptive-slip baseline; it must be SlipOff when
	// MemScheme is not MemNone.
	Slip SlipMode

	// Ablation switches (beyond-paper; used by the ablation study to
	// quantify this implementation's design choices).
	//
	// DisableWaitMerge turns off re-convergence of SIMD groups suspended
	// at the same PC, leaving only ready-ready PC merges.
	DisableWaitMerge bool
	// DisableUniformFast turns off the statically-uniform branch fast path
	// (single-lane predicate evaluation for branches the divergence
	// analysis proved uniform, see program.ClassUniform); every
	// branch is then evaluated lane by lane. The trace-backed concordance
	// test uses this so that any divergence the analysis failed to predict
	// is observed rather than assumed away.
	DisableUniformFast bool
	// DisableProgSched replaces least-progressed-first issue with plain
	// round-robin over the scheduler slots.
	DisableProgSched bool
	// DisableMemHints ignores the static access-class hints
	// (isa.DFMemHint): every memory access keeps the full
	// subdivide-on-miss probe path even where the analysis proved the
	// probe fruitless. Behaviour-neutral by construction — a hinted
	// (warp-uniform) access occupies one line group and can never
	// hit/miss-diverge, so the probe it skips would never fire — this
	// knob exists to measure the pruned probe work (Stats.MemDivHintSkips).
	DisableMemHints bool

	// LaneTidStep is the global-thread-id distance between adjacent lanes
	// of a warp: 1 under block thread distribution (the default; 0 means
	// 1), the WPU count under interleaved distribution. The launcher
	// (internal/sim) sets it; the static per-pc transaction bounds are
	// scaled by it so the trace-backed concordance check stays sound for
	// any distribution.
	LaneTidStep int
}

// Normalized returns the configuration with every derived default filled
// in, exactly as New applies it — for callers that need the effective
// values without building a WPU.
func (c Config) Normalized() Config { return c.withDefaults() }

// withDefaults fills derived defaults.
func (c Config) withDefaults() Config {
	if c.SchedSlots <= 0 {
		c.SchedSlots = 2 * c.Warps
	}
	if c.WSTEntries <= 0 {
		c.WSTEntries = 16
	}
	if c.BranchLazyThreshold <= 0 {
		c.BranchLazyThreshold = 2
	}
	return c
}

// Validate rejects contradictory configurations.
func (c Config) Validate() error {
	if c.Warps <= 0 || c.Width <= 0 {
		return fmt.Errorf("wpu: need positive warps (%d) and width (%d)", c.Warps, c.Width)
	}
	if c.Width > 64 {
		return fmt.Errorf("wpu: width %d exceeds the 64-lane mask limit", c.Width)
	}
	if slots := c.withDefaults().SchedSlots; slots > 64 {
		return fmt.Errorf("wpu: %d scheduler slots exceed the 64-slot ready-mask limit", slots)
	}
	if c.Slip != SlipOff && c.MemScheme != MemNone {
		return fmt.Errorf("wpu: adaptive slip and DWS memory subdivision are exclusive")
	}
	return nil
}

// Scheme names a paper configuration and expands to policy settings.
type Scheme string

// The named configurations evaluated in the paper (Figures 7, 11 and 13).
const (
	SchemeConv             Scheme = "Conv"
	SchemePredictive       Scheme = "DWS.PredictiveSplit"
	SchemeBranchOnlyStack  Scheme = "DWS.BranchOnly.Stack"
	SchemeBranchOnly       Scheme = "DWS.BranchOnly"
	SchemeAggressBL        Scheme = "DWS.AggressSplit.BL"
	SchemeLazyBL           Scheme = "DWS.LazySplit.BL"
	SchemeReviveBL         Scheme = "DWS.ReviveSplit.BL"
	SchemeReviveMemOnly    Scheme = "DWS.ReviveSplit.MemOnly"
	SchemeAggress          Scheme = "DWS.AggressSplit"
	SchemeLazy             Scheme = "DWS.LazySplit"
	SchemeRevive           Scheme = "DWS.ReviveSplit"
	SchemeSlip             Scheme = "Slip"
	SchemeSlipBranchBypass Scheme = "Slip.BranchBypass"
)

// schemes is the one table of named configurations, in presentation order:
// each scheme's name and the five policy fields it sets.
var schemes = []struct {
	name   Scheme
	branch bool // SubdivideOnBranch
	pc     bool // PCReconv
	mem    MemScheme
	reconv MemReconv
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
	{SchemePredictive, true, true, PredictiveSplit, BranchBypass, SlipOff},
	{SchemeSlip, false, false, MemNone, BranchBypass, SlipOn},
	{SchemeSlipBranchBypass, true, true, MemNone, BranchBypass, SlipBranchBypass},
}

// AllSchemes lists every named configuration in presentation order.
var AllSchemes = func() []Scheme {
	all := make([]Scheme, len(schemes))
	for i, row := range schemes {
		all[i] = row.name
	}
	return all
}()

// Apply overlays the scheme's policy settings onto a base configuration.
func (s Scheme) Apply(c Config) Config {
	for _, row := range schemes {
		if row.name == s {
			c.SubdivideOnBranch, c.PCReconv = row.branch, row.pc
			c.MemScheme, c.MemReconv, c.Slip = row.mem, row.reconv, row.slip
			return c
		}
	}
	panic("wpu: unknown scheme " + string(s))
}
