package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentilePicker(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 99.9); got != 100 {
		t.Errorf("p99.9 of 100 samples = %v, want the maximum", got)
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input must read 0")
	}
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{4, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {500, 98}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, since that is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates past two samples
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The speedometer scales an interval by the readings around its midpoint.
func TestSpeedometerScalesByNearbyReadings(t *testing.T) {
	s := &speedometer{}
	t0 := time.Unix(1000, 0)
	// A box that runs at reference speed for 1 s and then at half speed.
	for i := 0; i < 20; i++ {
		s.at = append(s.at, t0.Add(time.Duration(i)*100*time.Millisecond))
		took := calRefMs
		if i >= 10 {
			took = 2 * calRefMs
		}
		if i == 4 {
			took = 10 * calRefMs // one preempted reading must not matter
		}
		s.took = append(s.took, took)
	}
	fast := timed{t0.Add(300 * time.Millisecond), 200 * time.Millisecond}
	slow := timed{t0.Add(1500 * time.Millisecond), 400 * time.Millisecond}
	if got := s.refMs(fast); math.Abs(got-200) > 1e-9 {
		t.Errorf("interval at reference speed = %v ms, want 200", got)
	}
	if got := s.refMs(slow); math.Abs(got-200) > 1e-9 {
		t.Errorf("interval at half speed = %v ms, want 200 (400 measured)", got)
	}
	if got := (&speedometer{}).refMs(fast); got != 200 {
		t.Errorf("without readings = %v, want the measured 200", got)
	}
}
