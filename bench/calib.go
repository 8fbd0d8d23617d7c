package main

import (
	"sort"
	"time"
)

// The box this runs on changes speed under the benchmark: the same pass
// reads ±10 % within a minute and 30–45 % slower in one hour than in the
// next, and process CPU time moves with wall time, so it is execution
// speed (a shared host), not preemption. No estimator over raw wall time
// survives that. So every time the benchmark gates is a same-run ratio, as
// ROADMAP item 1 asks: wall time divided by the time a fixed calibration
// kernel of the benchmark's own takes at that moment, and multiplied by
// calRefMs so that the number still reads as milliseconds — milliseconds of
// the reference box in the state it was in when the benchmark was defined.
// Measured over ten runs each in slow and fast hours: core_issue's
// throughput read 27 % lower in the slow hour raw and 10 % lower
// calibrated, and its op median spread by 0.148 of the median raw and by
// 0.062 calibrated; the ratio removes about two thirds of a shift between
// hours and halves the quartile spread within one.

// calRefMs is what one calibration took on the reference box then.
const calRefMs = 4.4

// calEvery is how often a running workload recalibrates (≈4 % overhead).
const calEvery = 100 * time.Millisecond

// timed is one measured interval.
type timed struct {
	start time.Time
	d     time.Duration
}

func since(start time.Time) timed { return timed{start, time.Since(start)} }

// speedometer keeps the run's calibration readings. It is used from the
// workload's main goroutine only, between ops: a calibration that shares
// the cores with the work it is meant to scale measures nothing.
type speedometer struct {
	at   []time.Time
	took []float64 // ms
	data []int     // the kernel's input
	buf  []int     // and its scratch
}

func newSpeedometer() *speedometer {
	s := &speedometer{data: make([]int, 1<<15), buf: make([]int, 1<<15)}
	x := uint64(12345)
	for i := range s.data {
		x = x*6364136223846793005 + 1442695040888963407
		s.data[i] = int(x >> 33)
	}
	return s
}

// reading times the kernel once: two sorts of 32 Ki pseudo-random
// integers. The array is small on purpose. A kernel that misses the caches
// (a pointer chain over megabytes was tried) follows a slow hour more
// closely, but its own time then depends on how much of it the program
// under test has just evicted, and a program that shrank its footprint
// would be charged for it.
func (s *speedometer) reading() {
	t0 := time.Now()
	for r := 0; r < 2; r++ {
		copy(s.buf, s.data)
		sort.Ints(s.buf)
	}
	s.at = append(s.at, t0)
	s.took = append(s.took, ms(time.Since(t0)))
}

// calibrate takes three readings: for the edges of a phase, where the
// readings on one side are all a long op has.
func (s *speedometer) calibrate() {
	for i := 0; i < 3; i++ {
		s.reading()
	}
}

// probe takes a reading if the last one is older than calEvery. Workloads
// call it between ops.
func (s *speedometer) probe() {
	if n := len(s.at); n == 0 || time.Since(s.at[n-1]) >= calEvery {
		s.reading()
	}
}

// kernelMs is the calibration time around t: the median of the five
// readings nearest to t in order, which shrugs off the ones that were
// preempted.
func (s *speedometer) kernelMs(t time.Time) float64 {
	n := len(s.at)
	if n == 0 {
		return calRefMs
	}
	i := sort.Search(n, func(i int) bool { return !s.at[i].Before(t) }) // first reading at or after t
	lo := min(max(i-2, 0), max(n-5, 0))
	return median(s.took[lo:min(lo+5, n)])
}

// refMs converts a measured interval to reference-box milliseconds, using
// the host's speed at the interval's midpoint.
func (s *speedometer) refMs(t timed) float64 {
	return ms(t.d) * calRefMs / s.kernelMs(t.start.Add(t.d/2))
}

func (s *speedometer) refMsAll(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = s.refMs(t)
	}
	return out
}

// wallMs is the intervals as measured, unscaled.
func wallMs(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.d)
	}
	return out
}

// pointMedian is the median over points of each point's median: the
// typical op when every point counts the same. Pooling the samples of
// unlike points instead gives a median that sits in the gap between two
// clusters and jumps from one to the other with the host's mood.
func pointMedian(ops [][]timed, conv func([]timed) []float64) float64 {
	var per []float64
	for _, o := range ops {
		if len(o) > 0 {
			per = append(per, median(conv(o)))
		}
	}
	return median(per)
}
