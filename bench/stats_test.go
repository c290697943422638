package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The input is not reordered.
	ys := []float64{3, 1, 2}
	percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Errorf("percentile reordered its input: %v", ys)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The ten-samples-beyond rule: p90 needs a hundred samples, p50 twenty.
func TestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {1080, 90, true},
		{19, 50, false}, {20, 50, true},
		{100, 99, false}, {1000, 99, true},
		{20, 90, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver applies to ten per-seed values.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	// Two samples extrapolate, as Python does: quantiles([1, 2]) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, false); !near(got, 0.10) {
		t.Errorf("latency 100 -> 110 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 90, false); !near(got, -0.10) {
		t.Errorf("latency 100 -> 90 worsens by %v, want -0.10", got)
	}
	if got := worsening(50, 45, true); !near(got, 0.10) {
		t.Errorf("throughput 50 -> 45 worsens by %v, want 0.10", got)
	}
	if got := worsening(0, 0, false); got != 0 {
		t.Errorf("0 -> 0 worsens by %v, want 0", got)
	}
	if got := worsening(0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("0 -> 1 worsens by %v, want +Inf", got)
	}
}
