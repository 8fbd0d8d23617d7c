package report

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
)

// Job names one simulation point: a benchmark under a knob setting.
type Job struct {
	Bench string
	Knobs Knobs
}

// Prefetch simulates the given jobs on a bounded worker pool (Jobs
// workers) and fills the session cache, so that Suite, its one caller,
// then only reads warm results. Duplicate jobs — within the batch or
// against earlier runs — cost nothing beyond a cache hit, because Run
// deduplicates singleflight-style.
//
// On failure the feed stops early and the first error observed is
// returned; which job fails first under concurrency is unspecified, but
// any error here would also have surfaced from the serial pass. A job
// that panics stops the feed the same way, and once the workers are done
// the panic continues on the caller's goroutine, original stack attached.
func (s *Session) Prefetch(jobs []Job) error {
	workers := s.Jobs()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 0 {
		return nil
	}

	feed := make(chan Job)
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		panicked any
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errOnce.Do(func() {
						panicked = fmt.Sprintf("%v\n\n%s", r, debug.Stack())
						close(stop)
					})
				}
			}()
			for j := range feed {
				if _, err := s.slot(j); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(stop)
					})
					return
				}
			}
		}()
	}
	for _, j := range jobs {
		select {
		case feed <- j:
		case <-stop:
			goto done
		}
	}
done:
	close(feed)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
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
