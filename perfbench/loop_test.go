package main

import (
	"context"
	"testing"
	"time"
)

// TestDueTimeLatencyCountsStall runs an open loop in which the first op
// stalls the only in-flight slot: the op behind it is sent late, and its
// latency counts the wait from its due time, not just its own service
// time.
func TestDueTimeLatencyCountsStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	dues := []time.Duration{0, 10 * time.Millisecond}
	out := runOpen(context.Background(), time.Now(), dues, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	second := out[1]
	if second.err != nil {
		t.Fatal(second.err)
	}
	if lag := second.lag(); lag < stall-dues[1] {
		t.Errorf("second op lag %v, want at least %v", lag, stall-dues[1])
	}
	if lat := second.latency(); lat < stall-dues[1] {
		t.Errorf("second op latency %v, want at least %v (it waited behind the stall)", lat, stall-dues[1])
	}
	if own := second.done.Sub(second.sent); own >= stall/2 {
		t.Errorf("second op's own service time %v should be short", own)
	}
}

// TestDueTimeLatencyCountsGeneratorLateness starts the schedule in the
// past, as a generator stalled before dispatch would: every op is late
// and its latency includes the lateness.
func TestDueTimeLatencyCountsGeneratorLateness(t *testing.T) {
	const late = 50 * time.Millisecond
	out := runOpen(context.Background(), time.Now().Add(-late), []time.Duration{0}, 4, func(int) error { return nil })
	if out[0].lag() < late || out[0].latency() < late {
		t.Errorf("lag %v latency %v, both should be at least %v", out[0].lag(), out[0].latency(), late)
	}
}

// TestOpenLoopStopsOnCancel reports unsent ops with the context's error.
func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := runOpen(ctx, time.Now(), []time.Duration{0, time.Hour}, 1, func(int) error { return nil })
	for i, o := range out {
		if o.err == nil {
			t.Errorf("op %d ran after cancellation", i)
		}
	}
}
