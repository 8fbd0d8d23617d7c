package report

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Job names one simulation point: a benchmark under a knob setting.
type Job struct {
	Bench string
	Knobs Knobs
}

// prefetch simulates the given jobs on a bounded worker pool (Jobs
// workers) and fills the session cache, so that Suite, its one caller,
// then only reads warm results. Duplicate jobs — within the batch or
// against earlier runs — cost nothing beyond a cache hit, because Run
// deduplicates singleflight-style.
//
// Each worker claims the next job from a shared cursor, and the caller is
// one of them: Jobs()-1 goroutines start, none at -j 1, and a job of a few
// microseconds (a memory hit, a disk load) costs no hand-off.
//
// On failure the workers stop claiming and the first error observed is
// returned; which job fails first under concurrency is unspecified, but
// any error here would also have surfaced from the serial pass. A job
// that panics, on the caller or on another worker, stops the claims the
// same way, and once the workers are done the panic continues on the
// caller's goroutine, original stack attached.
func (s *Session) prefetch(jobs []Job) error {
	workers := min(s.Jobs(), len(jobs))
	if workers == 0 {
		return nil
	}
	p := &prefetchPool{s: s, jobs: jobs}
	p.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() { defer p.wg.Done(); p.work() }()
	}
	p.work()
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.firstErr
}

// prefetchPool is one prefetch call's shared state.
type prefetchPool struct {
	s    *Session
	jobs []Job
	next atomic.Int64 // index of the next unclaimed job
	stop atomic.Bool  // set with the first error or panic: claim nothing more
	wg   sync.WaitGroup

	errOnce  sync.Once // the first error or panic wins
	firstErr error
	panicked any
}

// work claims and runs jobs until none is left or one has failed. A panic
// is recorded, with the stack it unwound, for prefetch to re-raise.
func (p *prefetchPool) work() {
	defer func() {
		if r := recover(); r != nil {
			p.errOnce.Do(func() { p.panicked = fmt.Sprintf("%v\n\n%s", r, debug.Stack()) })
			p.stop.Store(true)
		}
	}()
	for !p.stop.Load() {
		i := p.next.Add(1) - 1
		if i >= int64(len(p.jobs)) {
			return
		}
		if _, err := p.s.slot(p.jobs[i]); err != nil {
			p.errOnce.Do(func() { p.firstErr = err })
			p.stop.Store(true)
			return
		}
	}
}

// SessionFlags registers the executor flags every CLI shares (-j,
// -cachedir, -nocache) on fs and returns the function that, once fs has
// been parsed, opens the session they describe for the program named prog.
// A negative -j is one line on stderr and exit status 1. A store that cannot
// be opened is a warning on stderr, not an error: the session then runs
// without one. The *Store is nil in that case and under -nocache.
func SessionFlags(fs *flag.FlagSet) func(prog string, opt StoreOptions) (*Session, *Store) {
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := fs.String("cachedir", "", "on-disk result store directory (default ~/.cache/dwsim)")
	noCache := fs.Bool("nocache", false, "disable the on-disk result store")
	return func(prog string, opt StoreOptions) (*Session, *Store) {
		if *jobs < 0 {
			fmt.Fprintf(os.Stderr, "%s: -j %d: want 0 (GOMAXPROCS) or more\n", prog, *jobs)
			os.Exit(1)
		}
		var st *Store
		if !*noCache {
			var err error
			if st, err = OpenStoreWith(*cacheDir, opt); err != nil { // st is nil
				fmt.Fprintf(os.Stderr, "%s: %v (continuing without the on-disk store)\n", prog, err)
			}
		}
		return NewSession(WithJobs(*jobs), WithStore(st)), st
	}
}
