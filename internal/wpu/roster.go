package wpu

// Roster is a machine's running account of its WPUs, which the simulation's
// run loop reads each cycle instead of asking every WPU: the set of WPUs
// that are awake and not done, how many are not done, and how many have a
// split parked at the kernel barrier. Each WPU bound to it keeps it current
// at its own transitions — wake, sleep, finish, park, release — so a
// sleeping WPU costs the run loop nothing. A WPU bound to none (New, and
// every WPU until Start) keeps no account.
type Roster struct {
	awake     []uint64 // bit i: WPU i is neither asleep nor done
	running   int      // WPUs not done
	atBarrier int      // WPUs with at least one split parked at the barrier
}

// Start binds ws to r, WPU i being ws[i] with ID i, and takes their account
// from scratch: the run loop calls it once per kernel, after the launch, and
// with no WPUs to empty r. It allocates only when ws outgrows every bank r
// has counted before.
func (r *Roster) Start(ws []*WPU) {
	n := (len(ws) + 63) / 64
	if cap(r.awake) < n {
		r.awake = make([]uint64, n)
	}
	r.awake = r.awake[:n]
	clear(r.awake)
	r.running, r.atBarrier = 0, 0
	for _, w := range ws {
		w.roster = r
		if w.Done() {
			continue
		}
		r.running++
		if !w.asleep {
			r.add(w.ID)
		}
		if w.atBarrier > 0 {
			r.atBarrier++
		}
	}
}

// Awake returns the set of awake, unfinished WPUs as a bitmap over WPU IDs,
// 64 to a word. The slice is r's own and stays valid until the next Start;
// its words change as WPUs wake, sleep and finish.
func (r *Roster) Awake() []uint64 { return r.awake }

// Running returns how many WPUs have not finished their kernel.
func (r *Roster) Running() int { return r.running }

// AtBarrier returns how many WPUs have a split parked at the barrier.
func (r *Roster) AtBarrier() int { return r.atBarrier }

func (r *Roster) add(id int)    { r.awake[id>>6] |= 1 << (id & 63) }
func (r *Roster) remove(id int) { r.awake[id>>6] &^= 1 << (id & 63) }

// moveBarrier changes the count of splits parked at the barrier by d and
// tells the roster when the WPU starts or stops having one.
func (w *WPU) moveBarrier(d int) {
	was := w.atBarrier > 0
	w.atBarrier += d
	if r := w.roster; r != nil && was != (w.atBarrier > 0) {
		if was {
			r.atBarrier--
		} else {
			r.atBarrier++
		}
	}
}

// doneChanged tells the roster that Done flipped. Within a kernel only the
// split count moving through zero with every thread halted flips it, and it
// can flip back: retiring the last split of a sync scope may complete the
// scope, which adds the merged split that retires in turn.
func (w *WPU) doneChanged(done bool) {
	r := w.roster
	switch {
	case r == nil:
	case done:
		r.running--
		r.remove(w.ID)
	default:
		r.running++
		r.add(w.ID)
	}
}
