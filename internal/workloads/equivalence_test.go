package workloads

import (
	"testing"

	"repro/internal/sim"
)

// TestMemoryHashDetectsDifferences guards the digest that report's
// TestRecycledMachineEqualsFresh compares across machines and schemes: it must react to a
// single changed word and must not depend on whether untouched pages were
// instantiated.
func TestMemoryHashDetectsDifferences(t *testing.T) {
	sysA, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := sysA.Memory()
	a.Write(0x100000, 42)
	a.Write(0x300000, -7)
	h1 := a.Hash()
	if a.Hash() != h1 {
		t.Fatal("hash not deterministic")
	}
	a.Read(0x900000) // must not change the digest
	if a.Hash() != h1 {
		t.Fatal("hash depends on reads")
	}
	a.Write(0x500000, 0) // writing zero instantiates a page but changes nothing
	if a.Hash() != h1 {
		t.Fatal("hash depends on zero-page instantiation")
	}
	a.Write(0x300000, -8)
	if a.Hash() == h1 {
		t.Fatal("hash missed a changed word")
	}
}
