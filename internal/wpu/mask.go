// Package wpu implements the warp processing unit: SIMD warps over scalar
// lanes, the conventional re-convergence stack, and the paper's dynamic
// warp subdivision (DWS) mechanisms — the warp-split table, every
// subdivision scheme (AggressSplit, LazySplit, ReviveSplit), every
// re-convergence scheme (stack-based, PC-based, BranchLimited,
// BranchBypass) — plus the adaptive-slip baseline it is compared against.
package wpu

import "math/bits"

// Mask is a set of lanes (threads) within one warp, at most 64 wide.
type Mask uint64

// FullMask returns the mask with the first width lanes set.
func FullMask(width int) Mask {
	if width >= 64 {
		return ^Mask(0)
	}
	return Mask(1)<<uint(width) - 1
}

// LaneMask returns the mask containing only the given lane.
func LaneMask(lane int) Mask { return Mask(1) << uint(lane) }

// Count returns the number of lanes in the mask.
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Has reports whether lane is in the mask.
func (m Mask) Has(lane int) bool { return m&LaneMask(lane) != 0 }

// Empty reports whether no lanes are set.
func (m Mask) Empty() bool { return m == 0 }

// Lanes iterates the set lanes in ascending order.
func (m Mask) Lanes(fn func(lane int)) {
	for v := uint64(m); v != 0; v &= v - 1 {
		fn(bits.TrailingZeros64(v))
	}
}
