package program

// Table 3 of the paper, the machine every exhibit is quoted under, written
// once: each constant is one value the simulator uses. sim.DefaultConfig
// builds the machine from them, the report knob table's default column and
// DefaultCostParams/DefaultMemParams name them, and the WPU takes its
// instruction cache and warp-split table sizes from them. They live here
// because this is the lowest package that names them: the WPU and sim
// packages both import it.
//
// Latencies and occupancies are cycles of the 1 GHz WPU clock. The source in
// each comment is "Table 3" for a value the table states, "from Table 3" for
// one derived from a bandwidth it states, and "model" for a value of this
// simulator's that the table does not give. DESIGN.md "Table 3, value by
// value" says where the machine charges each one.
const (
	WPUs       = 4  // WPUs on the chip (Table 3)
	Warps      = 4  // warps per WPU (Table 3)
	Width      = 16 // SIMD lanes per warp (Table 3)
	WSTEntries = 16 // warp-split table entries per WPU (§5.6)

	// LineBytes is the line size of the L1 D-cache, the L2 and the
	// instruction cache, in bytes (Table 3).
	LineBytes = 128

	// The private L1 D-cache of each WPU.
	L1SizeBytes = 32 << 10 // 32 KB (Table 3)
	L1Ways      = 8        // associativity (Table 3)
	L1HitLat    = 3        // cycles from issue to data on a hit (Table 3)
	L1Banks     = 16       // line-interleaved banks, one access per cycle each (model: one per lane)
	L1MSHRs     = 32       // line misses in flight (Table 3)

	// The shared, inclusive L2 and its directory.
	L2SizeBytes = 4 << 20 // 4 MB (Table 3)
	L2Ways      = 16      // associativity (Table 3)
	L2LookupLat = 30      // cycles, tag and data lookup (Table 3; Figure 16 sweeps it)
	L2ProbeLat  = 12      // cycles added when the directory revokes or downgrades another L1's copy (model)
	L2MSHRs     = 256     // line misses in flight (Table 3)

	// The L1↔L2 crossbar, the memory bus and DRAM.
	XbarLat   = 6   // cycles for one crossbar traversal (model)
	XbarOcc   = 2   // cycles a line holds the crossbar (from Table 3: 57 GB/s)
	MemBusOcc = 8   // cycles a line holds the memory bus (from Table 3: 16 GB/s)
	DRAMLat   = 100 // cycles of device access after the bus transfer (Table 3)

	// The instruction cache of each WPU. A hit takes one cycle (Table 3),
	// which is the issue cycle itself.
	ICacheBytes = 16 << 10 // 16 KB (Table 3)
	ICacheWays  = 4        // associativity (Table 3)
	InstBytes   = 8        // bytes per encoded instruction (model: fixed-width encoding)
)

// Derived from the values above.
const (
	ICacheLines       = ICacheBytes / LineBytes // 128
	ICacheInstPerLine = LineBytes / InstBytes   // 16
	// IMissLat is the stall of a cold instruction fetch: a crossbar round
	// trip and one L2 lookup, 42 cycles. It stays at this Table 3 value when
	// the l2lat knob moves the data side's lookup (DESIGN.md).
	IMissLat = 2*XbarLat + L2LookupLat
)
