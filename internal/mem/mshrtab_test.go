package mem

import (
	"math/rand"
	"testing"
)

// TestMSHRTableBasics exercises put/get/del through collisions and the
// backward-shift deletion, cross-checked against a plain map.
func TestMSHRTableBasics(t *testing.T) {
	tab := newMSHRTable[*l1MSHR](8) // 32 slots
	ref := map[uint64]*l1MSHR{}
	rng := rand.New(rand.NewSource(7))
	// Keys are line addresses: multiples of 128 in a narrow window, the
	// adversarial case for the multiplicative hash (low entropy, shared
	// low bits).
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = 0x100000 + uint64(i)*128
	}
	for step := 0; step < 10000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch {
		case rng.Intn(3) == 0:
			if _, ok := ref[k]; ok {
				delete(ref, k)
				tab.del(k)
			}
		case len(ref) < 8:
			if _, ok := ref[k]; !ok {
				m := &l1MSHR{lineAddr: k}
				ref[k] = m
				tab.put(k, m)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, tab.len(), len(ref))
		}
		for _, k := range keys {
			got, ok := tab.get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("step %d: get(%#x) = %v,%v want %v,%v", step, k, got, ok, want, wok)
			}
		}
	}
}

// TestMSHRTableDelAbsent: deleting a missing key must not disturb entries.
func TestMSHRTableDelAbsent(t *testing.T) {
	tab := newMSHRTable[*l2MSHR](4)
	m := &l2MSHR{lineAddr: 128}
	tab.put(128, m)
	tab.del(256)
	tab.del(128 + uint64(len(tab.slots))*128) // may hash near the live key
	if got, ok := tab.get(128); !ok || got != m {
		t.Fatalf("entry lost after deleting absent keys")
	}
	if tab.len() != 1 {
		t.Fatalf("len = %d, want 1", tab.len())
	}
}
