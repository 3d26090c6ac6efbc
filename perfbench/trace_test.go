package main

import (
	"testing"
	"time"
)

// TestSelfTimes: a layer's self time is its span's duration minus the
// union of its children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{ID: 1, Layer: "campaign", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Layer: "noc", Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Layer: "noc", Start: at(2), End: at(5)},     // overlaps span 2
		{ID: 4, Parent: 1, Layer: "budget", Start: at(9), End: at(12)}, // runs past its parent
		{ID: 5, Parent: 3, Layer: "budget", Start: at(4), End: at(5)},
	}
	got := selfTimes(spans)
	want := map[string]float64{"campaign": 10 - 4 - 1, "noc": 2 + 3 - 1, "budget": 3 + 1}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self time %g, want %g", layer, got[layer], w)
		}
	}
	var tr *tracer
	if id := tr.start("noc", "untraced", 0); id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
	tr.end(0)
}
