package report

import (
	"encoding/json"
	"io"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/wpu"
)

// Machine-readable run metrics: dwsim -stats writes a StatsDoc (one RunDoc
// per benchmark run) so downstream tooling can consume every counter the
// simulator keeps without scraping the text tables. The documents are
// plain JSON of exported structs; Go's encoder emits struct fields in
// declaration order, so the bytes are deterministic for identical runs
// once the volatile WallSeconds field is excluded.

// Schema identifiers; bump on incompatible layout changes so consumers
// can dispatch (mirrors storeSchema for the on-disk result cache).
// v2: wpu.Stats carries the top-down stall taxonomy instead of the old
// three-way cycle split, documents carry an explicit SchemaVersion, and
// traced runs may attach the latency histograms.
// v3: wpu.Stats gained the static access-class concordance counters
// (MemClassAccesses/MemClassTransactions/MemBoundExceeded; v5 dropped a fourth).
// v4: the knobs object carries the names a dwsimd job uses ("l1kb", not
// "L1KB"; "dist" as "block"/"interleave", not 0/1), so it can be posted
// back as a job's knobs. Nothing else moved.
// v5: the static memory hint is gone, and with it the knobs' no_mem_hints
// and wpu.Stats' hint-skip counter: a warp-uniform access touches one
// line, so it can never hit/miss-diverge, and the probe the hint pruned
// already runs only on a divergent access. Nothing else moved.
// v6: wpu.Stats' counter of the uniform-branch fast path is gone with the
// path: every branch is steered by the lane loop, which already leaves a
// non-divergent branch's stack alone, and no benchmark ever took the path.
// Nothing else moved.
// v7: wpu.Stats counts each event once. WidthAccum (always ThreadOps),
// MemInsts (always MemAccesses) and LineAccesses (always the sum of
// MemClassTransactions) are gone. Nothing else moved.
const (
	// SchemaVersion is the integer revision of the run-metrics layout,
	// carried as its own field in every document so consumers can dispatch
	// numerically without parsing the schema strings.
	SchemaVersion  = 7
	RunDocSchema   = "dwsim-run-v7"
	StatsDocSchema = "dwsim-stats-v7"
)

// RunDerived holds the headline ratios the paper quotes (§5.5), precomputed
// so consumers need no knowledge of the raw counter semantics.
type RunDerived struct {
	MeanSIMDWidth float64 `json:"mean_simd_width"`
	MemStallFrac  float64 `json:"mem_stall_fraction"`
	L1MissRate    float64 `json:"l1_miss_rate"`
}

// RunEnergy packages the §3.3 energy model output: the per-component
// breakdown in nanojoules plus the derived millijoule totals.
type RunEnergy struct {
	BreakdownNJ energy.Breakdown `json:"breakdown_nj"`
	TotalMJ     float64          `json:"total_mj"`
	DynamicMJ   float64          `json:"dynamic_mj"`
	LeakageMJ   float64          `json:"leakage_mj"`
}

// RunDoc is the machine-readable record of one benchmark × configuration
// run: the full knob vector, provenance, and every statistic the machine
// collected.
type RunDoc struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	Bench         string `json:"bench"`
	Scheme        string `json:"scheme"`
	Knobs         Knobs  `json:"knobs"`
	// Source records how the result was obtained: "simulated" (fresh run),
	// "disk-store" (loaded from the cross-process cache), or "traced-live"
	// (forced live because an observability sink was attached).
	Source string `json:"source"`
	// WallSeconds is host wall-clock time for this session's handling of
	// the point (≈0 for cache hits). It is the one volatile field:
	// byte-determinism tests zero it before comparing documents.
	WallSeconds    float64     `json:"wall_seconds"`
	Cycles         uint64      `json:"cycles"`
	Derived        RunDerived  `json:"derived"`
	WPU            wpu.Stats   `json:"wpu"`
	L1             mem.L1Stats `json:"l1"`
	L2             mem.L2Stats `json:"l2"`
	XbarTransfers  uint64      `json:"xbar_transfers"`
	DRAMAccesses   uint64      `json:"dram_accesses"`
	DRAMWritebacks uint64      `json:"dram_writebacks"`
	Energy         RunEnergy   `json:"energy"`
	// Hists carries the latency histograms when the run was traced with an
	// observability sink; untraced runs omit the field entirely.
	Hists *obs.HistSet `json:"hists,omitempty"`
}

// NewRunDoc assembles the document for one completed run.
func NewRunDoc(r Result, k Knobs, source string, wallSeconds float64) RunDoc {
	var l1Rate float64
	if r.L1.Accesses > 0 {
		l1Rate = float64(r.L1.Misses) / float64(r.L1.Accesses)
	}
	return RunDoc{
		Schema:        RunDocSchema,
		SchemaVersion: SchemaVersion,
		Bench:         r.Bench,
		Scheme:        string(r.Scheme),
		Knobs:         k,
		Source:        source,
		WallSeconds:   wallSeconds,
		Cycles:        r.Cycles,
		Derived: RunDerived{
			MeanSIMDWidth: r.Stats.MeanSIMDWidth(),
			MemStallFrac:  r.Stats.MemStallFraction(),
			L1MissRate:    l1Rate,
		},
		WPU:            r.Stats,
		L1:             r.L1,
		L2:             r.L2,
		XbarTransfers:  r.XbarTransfers,
		DRAMAccesses:   r.DRAMAccesses,
		DRAMWritebacks: r.DRAMWritebacks,
		Energy: RunEnergy{
			BreakdownNJ: r.Energy,
			TotalMJ:     r.Energy.TotalmJ(),
			DynamicMJ:   r.Energy.DynamicmJ(),
			LeakageMJ:   r.Energy.LeakagemJ(),
		},
	}
}

// StatsDoc is the top-level document dwsim -stats writes: the run list in
// command-line benchmark order plus the session's cache counters.
type StatsDoc struct {
	Schema        string     `json:"schema"`
	SchemaVersion int        `json:"schema_version"`
	Runs          []RunDoc   `json:"runs"`
	Cache         CacheStats `json:"session_cache"`
}

// WriteStatsDoc renders the document as indented JSON.
func WriteStatsDoc(w io.Writer, runs []RunDoc, cache CacheStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(StatsDoc{Schema: StatsDocSchema, SchemaVersion: SchemaVersion,
		Runs: runs, Cache: cache})
}
