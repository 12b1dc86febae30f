package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
		{10, 1.4}, // between ranks 0 and 1
		{99, 4.96},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{2, 1}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}
