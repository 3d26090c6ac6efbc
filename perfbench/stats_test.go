package main

import (
	"math"
	"testing"
)

// TestTailRule pins the percentile rule: the tail reported is the
// highest ladder percentile with at least ten samples beyond it, and the
// sample count travels with it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		label string
	}{
		{10000, "p99.9"},
		{9999, "p99"},
		{1000, "p99"},
		{999, "p95"},
		{200, "p95"},
		{100, "p90"},
		{99, "p75"},
		{40, "p75"},
		{20, "p50"},
		{19, "max"},
		{1, "max"},
	}
	for _, c := range cases {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(c.n - i) // reversed: summarize must sort
		}
		d := summarize(v)
		if d.tailLabel() != c.label || d.N != c.n {
			t.Errorf("n=%d: tail %s over %d samples, want %s", c.n, d.tailLabel(), d.N, c.label)
		}
		beyond := 0
		for _, x := range v {
			if x > d.Tail {
				beyond++
			}
		}
		if c.label != "max" && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported %s", c.n, beyond, c.label)
		}
	}
	if d := summarize([]float64{1, 2, 3, 4}); d.Median != 2.5 || d.Max != 4 {
		t.Errorf("summarize(1..4) = %+v", d)
	}
}

// TestQuartilesMatchPython checks the port of statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10.21, 10.51, 10.54, 11.06, 12.80}, [3]float64{10.36, 10.54, 11.93}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		for i, got := range []float64{q1, m, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
				break
			}
		}
	}
}
