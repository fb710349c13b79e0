package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 75, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{seq(40), 75, 30},
		{seq(40), 25, 10},
		{seq(40), 50, 20},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// At the benchmark's R = 40 campaigns, p75 is the highest percentile
// with at least ten samples beyond it.
func TestP75LeavesTenSamplesBeyondAt40(t *testing.T) {
	xs := seq(40)
	if n := beyond(xs, percentile(xs, 75)); n != 10 {
		t.Errorf("%d samples beyond p75 at R=40, want 10", n)
	}
	if n := beyond(xs, percentile(xs, 76)); n >= 10 {
		t.Errorf("p76 leaves %d samples beyond; p75 would not be the highest such percentile", n)
	}
}

func TestQuartilesAndSpread(t *testing.T) {
	q1, q2, q3 := quartiles(seq(40))
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles = %g %g %g, want 10 20 30", q1, q2, q3)
	}
	if got := spread(seq(40)); got != 1 {
		t.Errorf("spread = %g, want (30-10)/20 = 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal samples = %g, want 0", got)
	}
}
