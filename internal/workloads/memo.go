package workloads

import (
	"slices"
	"sync"
)

// memoBudget bounds the host bytes (images and references) the memo keeps.
// The whole suite takes about 1.3 MB at scale 1 and grows linearly, so
// every benchmark of a suite stays prepared up to scale 32; past the budget
// the oldest entries go first, and a build whose entry went prepares again.
const memoBudget = 64 << 20

// memoKey is everything a preparation reads: the benchmark, its scale and
// the machine's thread capacity, which sizes the launches and the kernels'
// declared thread bounds. The image's addresses assume an allocator at its
// base; Memory.Load refuses any other, so that need not be in the key.
type memoKey struct {
	bench           string
	scale, capacity int
}

// memo is the process-wide table of prepared benchmarks. order holds the
// keys with their sizes, oldest first: the eviction order.
var memo = struct {
	sync.Mutex
	byKey map[memoKey]*prepared
	order []sized
	bytes int
}{byKey: make(map[memoKey]*prepared)}

type sized struct {
	key   memoKey
	bytes int
}

// prepared returns the benchmark prepared for a machine of the given
// thread capacity, preparing it on a miss. Two goroutines that miss on the
// same key both prepare it, outside the lock; the first to finish is
// remembered and both get that one. A preparation that panics (a kernel
// that stops verifying) leaves nothing behind.
func (s Spec) prepared(capacity int) *prepared {
	k := memoKey{s.Name, s.scale, capacity}
	memo.Lock()
	p := memo.byKey[k]
	memo.Unlock()
	if p != nil {
		return p
	}
	p = s.prepare(s.scale, capacity)
	return remember(k, p, p.bytes())
}

// remember enters p, which holds size bytes, under k unless an entry is
// already there, and returns the entry. Then it drops the oldest entries
// until the memo fits its budget, all but the newest if need be.
func remember(k memoKey, p *prepared, size int) *prepared {
	memo.Lock()
	defer memo.Unlock()
	if first := memo.byKey[k]; first != nil {
		return first
	}
	memo.byKey[k] = p
	memo.order = append(memo.order, sized{k, size})
	memo.bytes += size
	for memo.bytes > memoBudget && len(memo.order) > 1 {
		delete(memo.byKey, memo.order[0].key)
		memo.bytes -= memo.order[0].bytes
		memo.order = slices.Delete(memo.order, 0, 1)
	}
	return p
}
