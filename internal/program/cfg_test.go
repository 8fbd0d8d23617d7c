package program

import (
	"testing"
)

// buildIPdomCase assembles a kernel and returns (program, ipdom-by-block
// from the bitset algorithm, ipdom-by-block from the CHK cross-check),
// having asserted that the two algorithms agree on dominators and
// post-dominators alike.
func buildIPdomCase(t *testing.T, name string, emit func(b *Builder)) (*Program, []int, []int) {
	t.Helper()
	b := NewBuilder(name)
	emit(b)
	p := b.MustBuild()
	bitset, chk := checkDominance(t, p)
	return p, bitset, chk
}

// TestIPdomEdgeCases drives both post-dominator algorithms — the bitset
// fixpoint used by Build and the Cooper-Harvey-Kennedy recomputation used
// by the verifier — through the CFG shapes that historically break ipdom
// implementations, and checks they agree with hand-derived answers.
func TestIPdomEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *Builder)
		// want[blockID] = expected immediate post-dominator block ID,
		// -1 when the paths only re-join at kernel termination.
		want []int
	}{
		{
			// A loop whose body has two distinct back-edges to the header:
			//
			//	B0 header:  bnez r1, exit
			//	B1 body:    bnez r2, header   (first back-edge)
			//	B2 tail:    jmp header        (second back-edge)
			//	B3 exit:    halt
			//
			// The header's ipdom is the exit block because every path out
			// of the loop funnels through it; both back-edge blocks have
			// the header itself as ipdom, since B1's only routes forward
			// (fallthrough to B2, back-edge to B0) re-join at the header.
			name: "loop with two back-edges",
			emit: func(b *Builder) {
				b.Label("header")
				b.Bnez(1, "exit")
				b.Bnez(2, "header")
				b.Jmp("header")
				b.Label("exit")
				b.Halt()
			},
			want: []int{3, 0, 0, -1},
		},
		{
			// Nested divergence: an outer if/else whose then-arm contains an
			// inner if/else. Inner branch re-converges at the inner join,
			// outer branch at the outer join, and the joins are distinct.
			//
			//	B0:  beqz r1, outer_else
			//	B1:  beqz r2, inner_else   (inner branch)
			//	B2:  addi ...; jmp inner_join
			//	B3 inner_else: addi ...
			//	B4 inner_join: jmp outer_join
			//	B5 outer_else: addi ...
			//	B6 outer_join: halt
			name: "nested divergence",
			emit: func(b *Builder) {
				b.Beqz(1, "outer_else")
				b.Beqz(2, "inner_else")
				b.Addi(4, 0, 1)
				b.Jmp("inner_join")
				b.Label("inner_else")
				b.Addi(4, 0, 2)
				b.Label("inner_join")
				b.Jmp("outer_join")
				b.Label("outer_else")
				b.Addi(4, 0, 3)
				b.Label("outer_join")
				b.Halt()
			},
			want: []int{6, 4, 4, 4, 6, 6, -1},
		},
		{
			// A branch whose arms never re-join: each arm halts, so the
			// only common post-dominator is the virtual exit.
			//
			//	B0:  bnez r1, dead_end
			//	B1:  addi ...; halt
			//	B2 dead_end: halt
			name: "ipdom is exit",
			emit: func(b *Builder) {
				b.Bnez(1, "dead_end")
				b.Addi(4, 0, 1)
				b.Halt()
				b.Label("dead_end")
				b.Halt()
			},
			want: []int{-1, -1, -1},
		},
		{
			// Self-loop: a single block branching to itself until the
			// predicate clears, then falling through to halt.
			//
			//	B0:  addi r4, r4, -1; bnez r4, B0
			//	B1:  halt
			name: "self-loop",
			emit: func(b *Builder) {
				b.Label("top")
				b.Addi(4, 4, -1)
				b.Bnez(4, "top")
				b.Halt()
			},
			want: []int{1, -1},
		},
		{
			// Loop with two exits (break in the body): the header's exit
			// test and a body-level early exit both land on the same block.
			// The latch's ipdom is the header it jumps straight back to.
			//
			//	B0 header:  beqz r1, out
			//	B1 body:    bnez r2, out    (break)
			//	B2 latch:   jmp header
			//	B3 out:     halt
			name: "loop with break",
			emit: func(b *Builder) {
				b.Label("header")
				b.Beqz(1, "out")
				b.Bnez(2, "out")
				b.Jmp("header")
				b.Label("out")
				b.Halt()
			},
			want: []int{3, 3, 0, -1},
		},
		{
			// Irreducible region: the entry branches into either half of a
			// two-block cycle, so neither half dominates the other and no
			// back edge explains the cycle. Every way out leads to B3.
			//
			//	B0:    beqz r1, b
			//	B1 a:  addi ...; beqz r2, out
			//	B2 b:  addi ...; bnez r3, a
			//	B3 out: halt
			name: "irreducible region",
			emit: func(b *Builder) {
				b.Beqz(1, "b")
				b.Label("a")
				b.Addi(4, 4, 1)
				b.Beqz(2, "out")
				b.Label("b")
				b.Addi(5, 5, 1)
				b.Bnez(3, "a")
				b.Label("out")
				b.Halt()
			},
			want: []int{3, 3, 3, -1},
		},
		{
			// Infinite loop: the block cannot reach the exit, so it has no
			// post-dominator at all (and, being the entry, no dominator).
			name: "infinite loop",
			emit: func(b *Builder) {
				b.Label("spin")
				b.Addi(4, 4, 1)
				b.Jmp("spin")
			},
			want: []int{-1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, bitset, chk := buildIPdomCase(t, tc.name, tc.emit)
			if len(p.Blocks) != len(tc.want) {
				t.Fatalf("got %d blocks, test expects %d — CFG shape drifted", len(p.Blocks), len(tc.want))
			}
			for blk, want := range tc.want {
				if bitset[blk] != want {
					t.Errorf("bitset dominance: block %d ipdom = %d, want %d", blk, bitset[blk], want)
				}
				if chk[blk] != want {
					t.Errorf("verifiedIPdom: block %d ipdom = %d, want %d", blk, chk[blk], want)
				}
			}
		})
	}
}

// TestIPdomAlgorithmsAgreeOnLatchlessLoop pins the case where a block is
// unreachable *backwards* from the exit (an infinite loop): both
// algorithms must report no post-dominator rather than disagreeing.
func TestIPdomAlgorithmsAgreeOnLatchlessLoop(t *testing.T) {
	b := NewBuilder("infinite")
	b.Label("spin")
	b.Addi(4, 4, 1)
	b.Jmp("spin")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("infinite loops are legal programs: %v", err)
	}
	checkDominance(t, p)
}
