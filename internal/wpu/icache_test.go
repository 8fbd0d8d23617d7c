package wpu

import (
	"testing"

	"repro/internal/program"
)

// loopProgram is a small two-line kernel that loops a few times.
func loopProgram(t *testing.T) *program.Program { return namedLoopProgram(t, "loopy") }

// namedLoopProgram builds the loop kernel under a name of the caller's
// choosing. Every Build is a program of its own, with a fetch range of its
// own on a WPU that runs it.
func namedLoopProgram(t *testing.T, name string) *program.Program {
	t.Helper()
	b := program.NewBuilder(name)
	b.Movi(8, 5)
	b.Label("head")
	b.Addi(8, 8, -1)
	b.Bnez(8, "head")
	b.Halt()
	return b.MustBuild()
}

func TestICacheColdThenHot(t *testing.T) {
	c := newICache(8, 2)
	if c.Fetch(0) {
		t.Fatal("cold fetch hit")
	}
	hits := 0
	for pc := 0; pc < program.ICacheInstPerLine; pc++ {
		if !c.Fetch(pc) {
			t.Fatalf("pc %d missed within a filled line", pc)
		}
		hits++
	}
	if c.Misses != 1 || hits != program.ICacheInstPerLine {
		t.Fatalf("%d misses and %d hits, want 1 and %d", c.Misses, hits, program.ICacheInstPerLine)
	}
}

func TestICacheLRUWithinSet(t *testing.T) {
	c := newICache(4, 2) // 2 sets x 2 ways
	// Lines 0, 2, 4 map to set 0 (lineNo % 2 == 0).
	c.Fetch(0 * program.ICacheInstPerLine)
	c.Fetch(2 * program.ICacheInstPerLine)
	c.Fetch(0 * program.ICacheInstPerLine) // touch line 0: line 2 is LRU
	c.Fetch(4 * program.ICacheInstPerLine) // evicts line 2
	if !c.Fetch(0 * program.ICacheInstPerLine) {
		t.Fatal("recently used line evicted")
	}
	if c.Fetch(2 * program.ICacheInstPerLine) {
		t.Fatal("LRU line survived")
	}
}

func TestICacheDefaultGeometry(t *testing.T) {
	w, _, _ := newBareWPU(t, Config{Warps: 2, Width: 4})
	// Table 3: 16 KB, 4-way, 128 B lines.
	if sets, ways := len(w.icache.sets), len(w.icache.sets[0]); sets != 32 || ways != 4 {
		t.Fatalf("icache is %d sets x %d ways, want 32 x 4", sets, ways)
	}
}

func TestKernelsStayICacheResident(t *testing.T) {
	// After the cold start a small kernel must never miss again: fetch
	// misses stay bounded by the kernel's line count per launch.
	b := loopProgram(t)
	w, q, _ := newBareWPU(t, Config{Warps: 2, Width: 4})
	launchSimple(t, w, b, 8, nil)
	runToCompletion(t, w, q)
	lines := uint64(len(b.Code)/program.ICacheInstPerLine + 1)
	if w.Stats.IFetchMisses > lines {
		t.Fatalf("IFetchMisses = %d, want <= %d cold lines", w.Stats.IFetchMisses, lines)
	}
}

func TestProgramsGetDisjointFetchBases(t *testing.T) {
	w, q, _ := newBareWPU(t, Config{Warps: 1, Width: 4})
	p1 := loopProgram(t)
	p2 := namedLoopProgram(t, "loopy-too")
	launchSimple(t, w, p1, 4, nil)
	runToCompletion(t, w, q)
	base1 := w.fetchBase
	launchSimple(t, w, p2, 4, nil)
	runToCompletion(t, w, q)
	base2 := w.fetchBase
	if base1 == base2 {
		t.Fatal("distinct programs share a fetch base")
	}
	// Relaunching p1 reuses its base (and stays cache-resident).
	misses := w.Stats.IFetchMisses
	launchSimple(t, w, p1, 4, nil)
	runToCompletion(t, w, q)
	if w.fetchBase != base1 {
		t.Fatal("relaunch did not reuse the program's fetch base")
	}
	if w.Stats.IFetchMisses != misses {
		t.Fatalf("relaunch of resident code missed %d times", w.Stats.IFetchMisses-misses)
	}
}
