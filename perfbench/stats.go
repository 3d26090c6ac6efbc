package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail rule climbs: the reported
// tail is the highest rung with at least minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-th percentile (0–100) of sorted values by
// linear interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailRung picks the highest ladder percentile that has at least
// minBeyond of n samples beyond it. ok is false when even the median
// lacks that support.
func tailRung(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		// The epsilon absorbs rounding in n·(1−q/100), e.g. 10000 at p99.9.
		if float64(n)*(100-q)/100 >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// dist summarises one sample set: its count, median, and the tail the
// percentile rule allows.
type dist struct {
	N      int
	Median float64
	// TailQ is the percentile Tail reports (0 when the sample supports
	// none beyond the median, in which case Tail is the maximum).
	TailQ float64
	Tail  float64
	Max   float64
}

// summarize applies the percentile rule to values (which it sorts in
// place).
func summarize(values []float64) dist {
	if len(values) == 0 {
		return dist{}
	}
	sort.Float64s(values)
	d := dist{N: len(values), Median: percentile(values, 50), Max: values[len(values)-1]}
	if q, ok := tailRung(len(values)); ok {
		d.TailQ, d.Tail = q, percentile(values, q)
	} else {
		d.Tail = d.Max
	}
	return d
}

// tailLabel names the percentile a dist's tail reports, e.g. "p99".
func (d dist) tailLabel() string {
	if d.TailQ == 0 {
		return "max"
	}
	return fmt.Sprintf("p%g", d.TailQ)
}

// median returns the median of values without modifying them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the first quartile, median and third quartile of
// values, using the same exclusive method as Python's
// statistics.quantiles(values, n=4), so figures match the acceptance
// check.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	// A port of CPython's exclusive method, clamping included.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
