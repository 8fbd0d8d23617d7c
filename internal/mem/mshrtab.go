package mem

// mshrTable is a small open-addressing hash table from line address to an
// in-flight miss record. The MSHR budget bounds the live entry count, so the
// table is sized once at construction (power of two, ≥4× the budget for a
// ≤25% load factor) and never rehashes; lookups on the access fast path are
// one multiplicative hash plus a short linear probe, with no per-entry heap
// boxes the way a map bucket chain has.
type mshrTable[V any] struct {
	slots []mshrSlot[V]
	mask  uint64
	n     int
}

type mshrSlot[V any] struct {
	key  uint64
	val  V
	used bool
}

func newMSHRTable[V any](budget int) mshrTable[V] {
	var t mshrTable[V]
	t.reset(budget)
	return t
}

// reset empties the table, resizing it only when the budget calls for a
// different slot count.
func (t *mshrTable[V]) reset(budget int) {
	if budget < 1 {
		budget = 1
	}
	cap := 8
	for cap < budget*4 {
		cap *= 2
	}
	if len(t.slots) != cap {
		t.slots = make([]mshrSlot[V], cap)
		t.mask = uint64(cap - 1)
	} else if t.n != 0 {
		clear(t.slots)
	}
	t.n = 0
}

func (t *mshrTable[V]) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// get returns the value for key and whether it is present. The empty-table
// early-out matters: in hit-heavy phases every cache access probes an MSHR
// table with nothing in flight, and the occupancy word is already hot.
func (t *mshrTable[V]) get(key uint64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	for i := t.hash(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			var zero V
			return zero, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// put inserts key→val; key must not already be present.
func (t *mshrTable[V]) put(key uint64, val V) {
	for i := t.hash(key); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.used {
			*s = mshrSlot[V]{key: key, val: val, used: true}
			t.n++
			return
		}
	}
}

// del removes key (a no-op if absent), backward-shifting the probe chain so
// lookups never need tombstones.
func (t *mshrTable[V]) del(key uint64) {
	i := t.hash(key)
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if s.key == key {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	// Backward shift: pull up any following entry whose ideal slot is at or
	// before the hole (it may only be stored past its ideal slot because the
	// chain through the hole was occupied).
	j := i
	for {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if !s.used {
			break
		}
		h := t.hash(s.key)
		// Is the hole i within [h, j) walking forward with wraparound?
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.slots[i] = *s
			i = j
		}
	}
	var zero mshrSlot[V]
	t.slots[i] = zero
}

// len returns the number of live entries.
func (t *mshrTable[V]) len() int { return t.n }
