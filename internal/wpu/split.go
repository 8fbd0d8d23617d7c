package wpu

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/isa"
)

// SplitState is the scheduling state of one SIMD group (a full warp or a
// warp-split; the paper's term for both is "SIMD group").
type SplitState uint8

const (
	// Ready: can issue instructions when the scheduler selects it.
	Ready SplitState = iota
	// WaitMem: waiting for outstanding D-cache accesses to complete.
	WaitMem
	// WaitSlip: an adaptive-slip warp stalled at a branch (or halt) until a
	// fall-behind slip group's data arrives and can be swapped in.
	WaitSlip
	// AtBarrier: parked at a kernel-wide barrier.
	AtBarrier
	// Dead: removed (merged away or retired); the object returns to its slab.
	Dead
)

func (s SplitState) String() string {
	switch s {
	case Ready:
		return "ready"
	case WaitMem:
		return "wait-mem"
	case WaitSlip:
		return "wait-slip"
	case AtBarrier:
		return "at-barrier"
	case Dead:
		return "dead"
	}
	return "?"
}

// StackEntry is one level of a re-convergence stack (Fung et al. [11]):
// the active mask and PC of one control path, and the PC at which the path
// re-converges with its sibling.
type StackEntry struct {
	ReconvPC int // program.NoIPdom when the paths only re-join at exit
	PC       int
	Mask     Mask
}

// SyncScope is the bookkeeping behind stack-based re-convergence of
// warp-splits (§4.4): when a SIMD group subdivides, its re-convergence
// stack is frozen here and the resulting warp-splits run asynchronously
// until every expected thread arrives at the scope's re-convergence PC
// (the post-dominator on top of the frozen stack), where the group is
// re-created and the stack resumes in the conventional manner.
type SyncScope struct {
	warp *Warp
	// reconvPC is where arrivals are forced; program.NoIPdom means kernel
	// termination (or a barrier).
	reconvPC int
	// limitControl marks BranchLimited scopes (§5.3.1): member splits also
	// stall immediately before any conditional branch.
	limitControl bool
	expected     Mask
	arrived      Mask
	arrivedPC    int
	frozen       []StackEntry
	parent       *SyncScope
}

// slipEntry is a fall-behind thread group under adaptive slip: threads that
// missed and were left behind, to be re-united when the run-ahead portion
// revisits their PC (or swapped in when the run-ahead stalls).
type slipEntry struct {
	split   *Split // the warp's schedulable split this group fell behind
	mask    Mask
	pc      int
	pending Mask // threads whose data has not arrived yet
	// scope captures the sync-scope context at slip time; the group may
	// only re-join a split in the same context (mask bookkeeping of frozen
	// stacks and scopes would corrupt otherwise).
	scope *SyncScope
}

// parkedEntry is the run-ahead portion of a slip warp parked at a branch
// while a fall-behind group catches up.
type parkedEntry struct {
	mask Mask
	pc   int
}

// Split is one scheduling entity: a full warp (root split) or a warp-split.
// Warp-splits own no register state — threads stay bound to their lanes —
// so a split is just {mask, PC, status}, exactly the paper's WST entry.
type Split struct {
	id   int
	warp *Warp

	mask  Mask
	pc    int
	state SplitState

	// stack is the split's private re-convergence stack; stack[0] is the
	// base entry (never popped). A freshly subdivided split starts at base.
	stack []StackEntry
	// scope is the innermost sync scope this split must eventually arrive
	// at; nil when the split is (a descendant of) the root with no pending
	// stack-based re-convergence.
	scope *SyncScope

	// pending marks threads with outstanding memory accesses (WaitMem).
	pending Mask
	// waitDiv marks a wait (WaitMem/WaitSlip) caused by a divergent access —
	// some lanes hit while others missed. Set by the wait-entry sites before
	// setState; setState/removeSplit keep the WPU's memWaitDiv count in sync
	// and clear the flag when the wait ends.
	waitDiv bool
	// born is the cycle this scheduling entity was created (split-lifetime
	// histogram); waitSince is the cycle of the most recent entry into a
	// wait state (wait-merge wait-time histogram).
	born      engine.Cycle
	waitSince engine.Cycle
	// memSince counts memory instructions issued since this split was
	// created by subdivision; wait-merging (re-convergence of two splits
	// suspended at the same PC) is only legal once both have moved past
	// their own subdivision point.
	memSince uint64
	// prog counts instructions this split's threads have retired; the
	// scheduler favours the least-progressed ready group so siblings stay
	// near-lockstep (Figure 6d) and PC-based re-convergence can catch them.
	prog uint64

	// resident: holds one of the scheduler's bounded slots (§6.6);
	// slotIdx is the held slot's index while resident, kept so state
	// transitions can update the scheduler's ready bitmask without searching
	// the slot array. queued mirrors membership in the WPU's slotWait queue
	// so transitions can maintain slotWaitReady without rescanning the queue
	// every stalled cycle.
	resident bool
	queued   bool
	slotIdx  int

	// Adaptive slip state (slip modes only).
	slipped []*slipEntry
	parked  []parkedEntry
}

func (s *Split) String() string {
	return fmt.Sprintf("split%d[w%d pc=%d mask=%#x %s]", s.id, s.warp.id, s.pc, uint64(s.mask), s.state)
}

// baseStack reports whether the private stack is fully unwound.
func (s *Split) baseStack() bool { return len(s.stack) == 1 }

// syncPC returns the innermost enforced re-convergence PC around this
// split: the post-dominator on top of its private stack when it has one,
// else the enclosing sync scope's re-convergence PC, else kernel
// termination. A scope created for a nested subdivision must inherit this
// — otherwise its children would sail past the enclosing sync point.
func (s *Split) syncPC() int {
	if !s.baseStack() {
		return s.tos().ReconvPC
	}
	if s.scope != nil {
		return s.scope.reconvPC
	}
	return -1 // program.NoIPdom
}

// tos returns the top re-convergence stack entry.
func (s *Split) tos() *StackEntry { return &s.stack[len(s.stack)-1] }

// slipCount returns how many threads this split currently has slipped or
// parked (they count against the adaptive divergence cap).
func (s *Split) slipCount() int {
	n := 0
	for _, e := range s.slipped {
		n += e.mask.Count()
	}
	return n
}

// memToken routes a cache-line completion to whichever entity owns the
// affected threads by then (the issuing split, a subdivided child, or a
// slip entry). Ownership is assigned after the subdivision decision, which
// happens in the same cycle the accesses are issued — before any completion
// can fire — and moves only when its owner is absorbed with the completion
// still in flight (a wait-merge, or a slip group's promotion): handOff gives
// the token to the survivor, so no token outlives its owner.
type memToken struct {
	lanes Mask
	owner completionTarget
}

type completionTarget interface {
	onLineDone(lanes Mask)
}

// Warp is one set of lanes sharing a register file and (initially) a PC.
// The register file is struct-of-arrays over lanes (isa.LaneRegs): register
// r across all lanes is one contiguous row, so the per-instruction execute
// loop streams over the active lanes instead of dispatching per lane.
type Warp struct {
	id     int
	wpu    *WPU
	regs   *isa.LaneRegs
	live   Mask // lanes with launched threads
	halted Mask
	splits []*Split
}

// liveUnhalted returns lanes still executing.
func (w *Warp) liveUnhalted() Mask { return w.live &^ w.halted }

// slab is a per-launch arena of T. put stores a value in a free object and
// returns its address, which stays valid however far the arena grows: objects
// sit in fixed-size chunks. release retires an object; it becomes free to
// hand out again in a later epoch than the one it was released in, which is
// the owner's promise that no caller can still name it. rewind makes
// everything handed out so far free again without releasing a chunk.
type slab[T any] struct {
	chunks [][]T
	chunk  int // chunks[chunk] is being carved
	used   int // objects handed out from it
	free   []*T
	// retired holds the objects released in epoch.
	retired []*T
	epoch   uint64
}

const slabChunk = 64

func (a *slab[T]) put(v T, epoch uint64) *T {
	a.age(epoch)
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		*p = v
		return p
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, slabChunk))
	}
	p := &a.chunks[a.chunk][a.used]
	*p = v
	if a.used++; a.used == slabChunk {
		a.chunk, a.used = a.chunk+1, 0
	}
	return p
}

func (a *slab[T]) release(p *T, epoch uint64) {
	a.age(epoch)
	a.retired = append(a.retired, p)
}

// age frees the objects retired in an earlier epoch than this one.
func (a *slab[T]) age(epoch uint64) {
	if epoch != a.epoch {
		a.free = append(a.free, a.retired...)
		a.retired = a.retired[:0]
		a.epoch = epoch
	}
}

func (a *slab[T]) rewind() {
	a.chunk, a.used = 0, 0
	a.free, a.retired = a.free[:0], a.retired[:0]
}
