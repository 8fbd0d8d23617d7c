package program

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/isa"
)

// buildCFG partitions the code into basic blocks and records successor
// edges. Block IDs are assigned in code order.
func buildCFG(code []isa.Inst) []Block {
	leader := make([]bool, len(code))
	leader[0] = true
	for pc, in := range code {
		switch {
		case in.Op.IsBranch():
			leader[in.Target] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.JMP:
			leader[in.Target] = true
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		case in.Op == isa.HALT:
			if pc+1 < len(code) {
				leader[pc+1] = true
			}
		}
	}

	var blocks []Block
	startToID := make(map[int]int)
	for pc := 0; pc < len(code); {
		end := pc + 1
		for end < len(code) && !leader[end] {
			end++
		}
		id := len(blocks)
		startToID[pc] = id
		blocks = append(blocks, Block{ID: id, Start: pc, End: end})
		pc = end
	}

	for i := range blocks {
		blk := &blocks[i]
		lastPC := blk.End - 1
		in := code[lastPC]
		switch {
		case in.Op.IsBranch():
			// Fallthrough first, then taken: deterministic order.
			if blk.End < len(code) {
				blk.Succ = append(blk.Succ, startToID[blk.End])
			}
			t := startToID[in.Target]
			if len(blk.Succ) == 0 || blk.Succ[0] != t {
				blk.Succ = append(blk.Succ, t)
			}
		case in.Op == isa.JMP:
			blk.Succ = append(blk.Succ, startToID[in.Target])
		case in.Op == isa.HALT:
			// Exit block: no successors.
		default:
			if blk.End < len(code) {
				blk.Succ = append(blk.Succ, startToID[blk.End])
			}
		}
	}
	return blocks
}

// bitset is a fixed-capacity set of block IDs.
type bitset []uint64

func (s bitset) has(v int) bool { return s[v/64]&(1<<(v%64)) != 0 }
func (s bitset) add(v int)      { s[v/64] |= 1 << (v % 64) }

func (s bitset) count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// natLoop is one natural loop: the back edges into one header, grouped.
type natLoop struct {
	header   int
	inLoop   []bool
	backSrcs []int
}

// cfgView is every derived fact about a control-flow graph that the static
// analyses share: the divergence dataflow, the cost model and the verifier's
// checks all read this one view instead of re-deriving block maps,
// reachability or dominance themselves. Build makes one and keeps it on the
// Program; Verify makes a fresh one from the Program's current Blocks on
// every call, so a Program tampered with after Build is judged on what it
// holds now. A view is immutable once built. Callers must have established
// that the blocks tile the code (checkShape, or buildCFG's own output).
type cfgView struct {
	blocks  []Block
	blockOf []int   // pc -> block ID
	preds   [][]int // predecessor lists over every edge, by ascending source
	reach   []bool  // reachable from the entry block
	canExit []bool  // some path from the block reaches a HALT block

	// dom[v] holds the blocks dominating v (empty for unreachable v);
	// pdom[v] the blocks post-dominating v (empty when v cannot exit: its
	// post-dominance is vacuous, a terminating run never executes it, and no
	// guarantee may be derived from it). Both come from dominance below.
	dom, pdom []bitset
	// ipdom[v] is v's immediate post-dominator, or -1 when only the virtual
	// exit post-dominates v or v cannot exit at all (matching the CHK
	// formulation in verify.go, whose reverse DFS never reaches such nodes).
	ipdom []int

	// loops are the natural loops by ascending header ID; irreducible marks
	// the reachable blocks in or behind a cycle no dominating header explains.
	loops       []natLoop
	irreducible []bool
	// cycles are the strongly connected components that contain an edge.
	cycles [][]int
}

func newCFGView(blocks []Block) *cfgView {
	n := len(blocks)
	g := &cfgView{blocks: blocks, blockOf: make([]int, blocks[n-1].End)}
	indeg := make([]int, n)
	edges := 0
	var exits []int
	for _, b := range blocks {
		for pc := b.Start; pc < b.End; pc++ {
			g.blockOf[pc] = b.ID
		}
		for _, s := range b.Succ {
			indeg[s]++
		}
		edges += len(b.Succ)
		if len(b.Succ) == 0 {
			exits = append(exits, b.ID)
		}
	}
	// Predecessor lists as windows into one array, filled in source order.
	g.preds = make([][]int, n)
	flat := make([]int, edges)
	for v, off := 0, 0; v < n; v++ {
		g.preds[v] = flat[off : off : off+indeg[v]]
		off += indeg[v]
	}
	for _, b := range blocks {
		for _, s := range b.Succ {
			g.preds[s] = append(g.preds[s], b.ID)
		}
	}
	g.reach = g.flood([]int{0}, false, -1)
	g.canExit = g.flood(exits, true, -1)
	g.dom = g.dominance(false)
	g.pdom = g.dominance(true)
	g.ipdom = immediate(g.pdom)
	g.loops, g.irreducible = g.findLoops()
	for _, scc := range stronglyConnected(blocks) {
		if len(scc) > 1 || slices.Contains(blocks[scc[0]].Succ, scc[0]) {
			g.cycles = append(g.cycles, scc)
		}
	}
	return g
}

// next returns v's successors, or its predecessors when walking backward.
func (g *cfgView) next(v int, backward bool) []int {
	if backward {
		return g.preds[v]
	}
	return g.blocks[v].Succ
}

// flood marks every block reachable from the seeds (forward along successor
// edges, or backward along predecessor edges) without ever entering stop;
// pass stop = -1 for no barrier.
func (g *cfgView) flood(seeds []int, backward bool, stop int) []bool {
	marked := make([]bool, len(g.blocks))
	stack := append([]int(nil), seeds...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == stop || marked[v] {
			continue
		}
		marked[v] = true
		stack = append(stack, g.next(v, backward)...)
	}
	return marked
}

// region marks the divergence region of the branch ending block b: the
// blocks reachable from b's successors before b's immediate post-dominator,
// i.e. what a warp split at the branch can run before it re-converges. A
// branch that re-converges only at kernel exit has no stop block.
func (g *cfgView) region(b int) []bool {
	return g.flood(g.blocks[b].Succ, false, g.ipdom[b])
}

// dominance is the one bitset dominator fixpoint, run twice per view:
// forward (dominators: in-edges are predecessors, the root is the entry
// block, the live nodes are the reachable ones) and on the reversed graph
// (post-dominators: in-edges are successors, the roots are the HALT blocks —
// the virtual exit's predecessors — and the live nodes are those that can
// exit). It solves set[v] = {v} ∪ ⋂ set[p] over v's live in-neighbours p,
// roots pinned at {v}, as a maximal fixpoint; because every live node is
// reachable from a root, that fixpoint is the true dominator relation.
// Kernels are tens of blocks, so the O(n²) set formulation is simple and
// fast enough. The Cooper-Harvey-Kennedy routine in verify.go is the
// independent algorithm that cross-checks it.
func (g *cfgView) dominance(post bool) []bitset {
	n := len(g.blocks)
	live := g.reach
	if post {
		live = g.canExit
	}
	isRoot := func(v int) bool {
		if post {
			return len(g.blocks[v].Succ) == 0
		}
		return v == 0
	}
	words := (n + 63) / 64
	store := make([]uint64, (n+2)*words)
	sets := make([]bitset, n)
	full, tmp := bitset(store[n*words:(n+1)*words]), bitset(store[(n+1)*words:])
	for v := range sets {
		sets[v] = store[v*words : (v+1)*words]
		if live[v] {
			full.add(v)
		}
	}
	for v := range sets {
		switch {
		case !live[v]:
		case isRoot(v):
			sets[v].add(v)
		default:
			copy(sets[v], full)
		}
	}
	// Sweep along the edges (ascending IDs forward, descending on the
	// reversed graph): one pass then carries a change as far as the graph is
	// acyclic.
	for changed := true; changed; {
		changed = false
		for k := 0; k < n; k++ {
			v := k
			if post {
				v = n - 1 - k
			}
			if !live[v] || isRoot(v) {
				continue
			}
			copy(tmp, full)
			for _, p := range g.next(v, !post) {
				if live[p] {
					for i := range tmp {
						tmp[i] &= sets[p][i]
					}
				}
			}
			tmp.add(v)
			if !slices.Equal(tmp, sets[v]) {
				copy(sets[v], tmp)
				changed = true
			}
		}
	}
	return sets
}

// immediate picks each node's immediate dominator out of its dominator set:
// the strict dominator closest to the node, i.e. the one whose own set is
// largest. -1 means none (a root, a non-live node, or — for post-dominators —
// a block whose paths re-join only at the virtual exit).
func immediate(sets []bitset) []int {
	idom := make([]int, len(sets))
	for v, set := range sets {
		best, bestSize := -1, 0
		for c := range sets {
			if c != v && set.has(c) {
				if sz := sets[c].count(); sz > bestSize {
					best, bestSize = c, sz
				}
			}
		}
		idom[v] = best
	}
	return idom
}

// findLoops finds back edges (u→h with h dominating u) and builds the
// natural loop of each header. It also marks which reachable blocks sit in
// irreducible cycles: remove the back edges and Kahn-toposort; whatever
// cannot be ordered is in (or behind) a cycle no dominating header explains.
func (g *cfgView) findLoops() (loops []natLoop, irreducible []bool) {
	n := len(g.blocks)
	byHeader := make(map[int][]int)
	isBack := func(u, h int) bool { return g.dom[u].has(h) } // dom[u] is empty for unreachable u
	for u, b := range g.blocks {
		for _, h := range b.Succ {
			if isBack(u, h) {
				byHeader[h] = append(byHeader[h], u)
			}
		}
	}
	headers := make([]int, 0, len(byHeader))
	for h := range byHeader {
		headers = append(headers, h)
	}
	sort.Ints(headers)
	for _, h := range headers {
		lp := natLoop{header: h, inLoop: g.flood(byHeader[h], true, h), backSrcs: byHeader[h]}
		lp.inLoop[h] = true
		loops = append(loops, lp)
	}

	irreducible = make([]bool, n)
	indeg := make([]int, n)
	var q []int
	for u, b := range g.blocks {
		if !g.reach[u] {
			continue
		}
		for _, s := range b.Succ {
			if !isBack(u, s) {
				indeg[s]++
			}
		}
	}
	for v := range g.blocks {
		if g.reach[v] && indeg[v] == 0 {
			q = append(q, v)
		}
	}
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		for _, s := range g.blocks[v].Succ {
			if !isBack(v, s) {
				if indeg[s]--; indeg[s] == 0 {
					q = append(q, s)
				}
			}
		}
	}
	for v := range g.blocks {
		irreducible[v] = g.reach[v] && indeg[v] > 0
	}
	return loops, irreducible
}

// stronglyConnected returns the strongly connected components of the block
// graph (iterative Tarjan; deterministic order).
func stronglyConnected(blocks []Block) [][]int {
	n := len(blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		sccs    [][]int
		stack   []int
		counter int
	)
	type frame struct {
		v, succIdx int
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		work := []frame{{root, 0}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.succIdx < len(blocks[f.v].Succ) {
				w := blocks[f.v].Succ[f.succIdx]
				f.succIdx++
				if index[w] < 0 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			work = work[:len(work)-1]
			if len(work) > 0 {
				if u := work[len(work)-1].v; low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// solve is the one dataflow fixpoint under the static analyses. Each block
// holds one state of type S — the fact at its entry for a forward problem,
// at its exit for a backward one. transfer carries a state across block b;
// join folds the result into the state held at each neighbour t downstream
// (successors forward, predecessors backward) and is told how many times
// t's state has been set so far, so a caller can treat the first arrival
// (visits == 0: old is the zero S) differently and can widen after some
// number of changes. A forward problem seeds the entry block with entry; a
// backward one seeds every reachable block with it (a block that cannot
// exit still has facts flowing out of it). Blocks are swept in ID order
// (descending when backward), revisiting only those whose state changed,
// until nothing changes: the same visiting order as a round-robin sweep,
// which matters for widening joins, whose result depends on it. Termination
// is the caller's: join must climb a finite chain.
func solve[S comparable](g *cfgView, backward bool, entry S, transfer func(b int, s S) S, join func(t int, old, in S, visits int) S) []S {
	n := len(g.blocks)
	state := make([]S, n)
	visits := make([]int, n)
	dirty := make([]bool, n)
	for b := 0; b < n; b++ {
		if b == 0 && !backward || backward && g.reach[b] {
			state[b], visits[b], dirty[b] = entry, 1, true
		}
	}
	for changed := true; changed; {
		changed = false
		for k := 0; k < n; k++ {
			b := k
			if backward {
				b = n - 1 - k
			}
			if !dirty[b] {
				continue
			}
			dirty[b] = false
			out := transfer(b, state[b])
			for _, t := range g.next(b, backward) {
				if s := join(t, state[t], out, visits[t]); visits[t] == 0 || s != state[t] {
					state[t], dirty[t], changed = s, true, true
					visits[t]++
				}
			}
		}
	}
	return state
}
